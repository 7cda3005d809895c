package trigtrace

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
)

// recordOne records one arrival through start (a Recorder's Start or a
// Claim's): a single invoke stage, over its 1000 ns budget when violate.
func recordOne(start func(uint64, string, string, simtime.Time, simtime.Duration) Context, seq uint64, violate bool) {
	tc := start(seq, "echo", "horse", 0, 1000)
	dur := simtime.Duration(100)
	if violate {
		dur = simtime.Duration(5000)
	}
	tc.RecordOn(StageInvoke, 0, dur, "n0", "horse", "")
	tc.Complete(Outcome{Served: "horse", Node: "n0", Latency: dur})
}

// TestRecorderResetClearsRunState pins the cross-run state-leak fix:
// a recorder reused across back-to-back cluster runs must report only
// the run at hand after Claim — aggregates, counters, and the flight
// recorder all return to their freshly built state.
func TestRecorderResetClearsRunState(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Seed: 11, WorstK: 4})

	recordOne(rec.Start, 0, false)
	recordOne(rec.Start, 1, true)
	recordOne(rec.Start, 2, true)
	if rec.Violations() != 2 {
		t.Fatalf("setup: Violations=%d, want 2", rec.Violations())
	}
	if len(rec.Traces()) == 0 || len(rec.Attribution()) == 0 {
		t.Fatal("setup did not retain traces and aggregates")
	}

	claim, err := rec.Claim()
	if err != nil {
		t.Fatal(err)
	}

	if claim.Violations() != 0 || claim.ReconcileFailures() != 0 {
		t.Fatalf("after Claim: Violations=%d Reconcile=%d, want both zero",
			claim.Violations(), claim.ReconcileFailures())
	}
	if len(rec.ring) != 0 || len(rec.worst) != 0 {
		t.Fatalf("after Claim: %d ring and %d worst-K traces retained, want none", len(rec.ring), len(rec.worst))
	}
	if got := claim.Attribution(); len(got) != 0 {
		t.Fatalf("after Claim: %d attribution rows, want none", len(got))
	}
	if id := claim.Start(5, "echo", "horse", 0, 0).tr.ID; id != NewTraceID(11, 5) {
		t.Fatalf("after Claim: minted %v for seq 5, want the seed-11 ID %v", id, NewTraceID(11, 5))
	}

	// Recording after Claim aggregates freshly, as on a new recorder.
	recordOne(claim.Start, 0, true)
	if claim.Violations() != 1 {
		t.Fatalf("after Claim+record: Violations=%d, want 1", claim.Violations())
	}
	rows := claim.Attribution()
	if len(rows) != 1 || rows[0].Count != 1 {
		t.Fatalf("after Claim+record: attribution %+v, want one row with count 1", rows)
	}
	claim.Release()
	if got := rec.Traces(); len(got) != 1 || got[0].Seq != 0 {
		t.Fatalf("after Claim+record: retained %+v, want the one new trace", got)
	}
}

// TestRecorderResetNil pins nil-safety: a nil recorder hands out the
// zero Claim, whose Start is inert, whose accessors read zero and whose
// Release is a no-op.
func TestRecorderResetNil(t *testing.T) {
	var rec *Recorder
	claim, err := rec.Claim()
	if err != nil {
		t.Fatalf("nil Claim: %v", err)
	}
	if claim.Start(0, "echo", "horse", 0, 0).Active() {
		t.Fatal("the zero Claim started an active context")
	}
	if claim.Violations() != 0 || claim.ReconcileFailures() != 0 || claim.Attribution() != nil {
		t.Fatal("the zero Claim's accessors read nonzero")
	}
	claim.Release()
}

// TestRecorderClaim: one claim at a time, also among goroutines that
// race for it. A second claim is refused at once, not queued behind
// the first (on the holder's goroutine a queued claim would never
// return), and a Release frees the recorder for the next.
func TestRecorderClaim(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Seed: 11})
	first, err := rec.Claim()
	if err != nil {
		t.Fatalf("first Claim: %v", err)
	}
	if _, err := rec.Claim(); !errors.Is(err, ErrRecorderInUse) {
		t.Fatalf("second Claim: err = %v, want ErrRecorderInUse", err)
	}
	first.Release()
	again, err := rec.Claim()
	if err != nil {
		t.Fatalf("Claim after Release: %v", err)
	}
	again.Release()
	// Racing claims: exactly one wins, and its holder's goroutine need
	// not be the one that releases it.
	won := make(chan Claim, 4)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if claim, err := rec.Claim(); err == nil {
				won <- claim
			}
		}()
	}
	wg.Wait()
	close(won)
	var wins []Claim
	for claim := range won {
		wins = append(wins, claim)
	}
	if len(wins) != 1 {
		t.Fatalf("%d of 4 racing claims won, want 1", len(wins))
	}
	wins[0].Release()
	last, err := rec.Claim()
	if err != nil {
		t.Fatalf("Claim after the winner's Release: %v", err)
	}
	last.Release()
}

// TestClaimBlocksDirectCallers: while a claim is held, each of the
// recorder's own locking methods waits, and every one proceeds once the
// claim is released. The holder keeps recording and yielding meanwhile,
// so a direct caller that did not wait would finish before Release.
func TestClaimBlocksDirectCallers(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Seed: 2})
	pending := rec.Start(0, "echo", "horse", 0, 1000) // completes during the claim
	pending.RecordOn(StageInvoke, 0, 100, "n0", "horse", "")
	claim, err := rec.Claim()
	if err != nil {
		t.Fatal(err)
	}
	direct := map[string]func(){
		"Start":             func() { rec.Start(1, "echo", "horse", 0, 1000) },
		"Complete":          func() { pending.Complete(Outcome{Served: "horse", Node: "n0", Latency: 100}) },
		"Violations":        func() { rec.Violations() },
		"ReconcileFailures": func() { rec.ReconcileFailures() },
		"Attribution":       func() { rec.Attribution() },
		"Traces":            func() { rec.Traces() },
	}
	done := make(map[string]chan struct{}, len(direct))
	for name, call := range direct {
		done[name] = make(chan struct{})
		go func() {
			call()
			close(done[name])
		}()
	}
	for seq := uint64(2); seq < 2000; seq++ {
		recordOne(claim.Start, seq, seq%5 == 0)
		runtime.Gosched()
	}
	for name, ch := range done {
		select {
		case <-ch:
			t.Errorf("direct %s returned while another goroutine held the claim", name)
		default:
		}
	}
	if got := claim.Attribution(); len(got) != 1 || got[0].Count != 1998 {
		t.Fatalf("the claim's attribution %+v, want one row counting its own 1998 arrivals", got)
	}
	claim.Release()
	for _, ch := range done {
		<-ch
	}
}

// TestClaimConcurrentWithDirectCallers: one goroutine claims the
// recorder and records through the claim while others call the
// recorder's own Start, Complete and accessors. The claim's aggregates
// count its own arrivals only, and every arrival is finished. Run with
// -race -count=10 (CI does).
func TestClaimConcurrentWithDirectCallers(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := NewRecorder(RecorderOptions{Seed: 9, Capacity: 4, WorstK: 2, Metrics: reg})
	const direct, perDirect, claimed = 3, 300, 500
	var wg sync.WaitGroup
	var claimErr atomic.Value
	wg.Add(1)
	go func() {
		defer wg.Done()
		claim, err := rec.Claim()
		if err != nil {
			claimErr.Store(err.Error())
			return
		}
		defer claim.Release()
		violated := uint64(0)
		for i := range uint64(claimed) {
			recordOne(claim.Start, 1_000_000+i, i%3 == 0)
			if i%3 == 0 {
				violated++
			}
		}
		if got := claim.Violations(); got != violated {
			claimErr.Store("claim counted another caller's violations")
		}
		if rows := claim.Attribution(); len(rows) != 1 || rows[0].Count != claimed || claim.ReconcileFailures() != 0 {
			claimErr.Store("claim's attribution mixed in another caller's arrivals")
		}
	}()
	for w := range direct {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range uint64(perDirect) {
				recordOne(rec.Start, uint64(w*perDirect)+i, i%4 == 0)
				rec.Violations()
				rec.ReconcileFailures()
				if i%50 == 0 {
					rec.Attribution()
					rec.Traces()
				}
			}
		}()
	}
	wg.Wait()
	if err := claimErr.Load(); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Counter("trigtrace_traces_total").Value(), uint64(direct*perDirect+claimed); got != want {
		t.Fatalf("traces finished = %d, want %d", got, want)
	}
}
