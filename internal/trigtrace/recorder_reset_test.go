package trigtrace

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
)

// TestRecorderResetClearsRunState pins the cross-run state-leak fix:
// a recorder reused across back-to-back cluster runs must report only
// the run at hand after Claim — aggregates, counters, and the flight
// recorder all return to their freshly built state.
func TestRecorderResetClearsRunState(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Seed: 11, WorstK: 4})

	record := func(seq uint64, violate bool) {
		budget := simtime.Duration(1000)
		tc := rec.Start(seq, "echo", "horse", 0, budget)
		dur := simtime.Duration(100)
		if violate {
			dur = simtime.Duration(5000)
		}
		tc.RecordOn(StageInvoke, 0, dur, "n0", "horse", "")
		tc.Complete(Outcome{Served: "horse", Node: "n0", Latency: dur})
	}

	record(0, false)
	record(1, true)
	record(2, true)
	if rec.Violations() != 2 {
		t.Fatalf("setup: Violations=%d, want 2", rec.Violations())
	}
	if len(rec.Traces()) == 0 || len(rec.Attribution()) == 0 {
		t.Fatal("setup did not retain traces and aggregates")
	}

	if err := rec.Claim(); err != nil {
		t.Fatal(err)
	}

	if rec.Violations() != 0 || rec.ReconcileFailures() != 0 {
		t.Fatalf("after Claim: Violations=%d Reconcile=%d, want both zero",
			rec.Violations(), rec.ReconcileFailures())
	}
	if got := rec.Traces(); len(got) != 0 {
		t.Fatalf("after Claim: %d retained traces, want none", len(got))
	}
	if got := rec.Attribution(); len(got) != 0 {
		t.Fatalf("after Claim: %d attribution rows, want none", len(got))
	}
	if rec.seed != 11 {
		t.Fatalf("Claim changed seed to %d", rec.seed)
	}

	// Recording after Claim aggregates freshly, as on a new recorder.
	record(0, true)
	if rec.Violations() != 1 {
		t.Fatalf("after Claim+record: Violations=%d, want 1", rec.Violations())
	}
	rows := rec.Attribution()
	if len(rows) != 1 || rows[0].Count != 1 {
		t.Fatalf("after Claim+record: attribution %+v, want one row with count 1", rows)
	}
	if got := rec.Traces(); len(got) != 1 || got[0].Seq != 0 {
		t.Fatalf("after Claim+record: retained %+v, want the one new trace", got)
	}
}

// TestRecorderResetNil pins nil-safety: Claim and Release on a nil
// recorder are no-ops, like every other method.
func TestRecorderResetNil(t *testing.T) {
	var rec *Recorder
	if err := rec.Claim(); err != nil {
		t.Fatalf("nil Claim: %v", err)
	}
	rec.Release()
}

// TestRecorderClaim: one claim at a time, also among goroutines that
// race for it, and a Release frees the recorder for the next.
func TestRecorderClaim(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Seed: 11})
	if err := rec.Claim(); err != nil {
		t.Fatalf("first Claim: %v", err)
	}
	if err := rec.Claim(); !errors.Is(err, ErrRecorderInUse) {
		t.Fatalf("second Claim: err = %v, want ErrRecorderInUse", err)
	}
	rec.Release()
	if err := rec.Claim(); err != nil {
		t.Fatalf("Claim after Release: %v", err)
	}
	rec.Release()
	// Racing claims: exactly one wins.
	var wins atomic.Int32
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec.Claim() == nil {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d of 4 racing claims won, want 1", wins.Load())
	}
}
