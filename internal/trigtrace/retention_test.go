package trigtrace

import (
	"slices"
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
)

// offered is one finished trace handed to the flight recorder: its
// arrival seq, its end-to-end latency (the worst-K score) and whether
// it violated its SLO.
type offered struct {
	seq      uint64
	score    simtime.Duration
	violated bool
}

// offerAll offers each trace to rec's flight recorder, as finish does,
// on the one goroutine the test runs, which owns rec.
// It returns what each offer kept and every trace the offers recycled
// as {offering seq, recycled seq}, in recycling order.
func offerAll(rec *Recorder, offers []offered) ([]retention, [][2]uint64) {
	var kept []retention
	var recycled [][2]uint64
	for _, o := range offers {
		n := len(rec.free)
		kept = append(kept, rec.offer(&TriggerTrace{Seq: o.seq, EndToEnd: o.score}, o.violated))
		for _, t := range rec.free[n:] {
			recycled = append(recycled, [2]uint64{o.seq, t.Seq})
		}
	}
	return kept, recycled
}

// ringSeqs lists the must-keep ring oldest first.
func ringSeqs(r *Recorder) []uint64 {
	var out []uint64
	for _, t := range slices.Concat(r.ring[r.ringHead:], r.ring[:r.ringHead]) {
		out = append(out, t.Seq)
	}
	return out
}

// worstSeqs lists the worst-K set highest score first, the earlier
// offer first on ties: the reverse of the order it lets traces go in,
// whatever the heap's layout.
func worstSeqs(r *Recorder) []uint64 {
	ws := slices.Clone(r.worst)
	slices.SortFunc(ws, func(a, b worstEntry) int {
		switch {
		case evictBefore(&b, &a):
			return -1
		case evictBefore(&a, &b):
			return 1
		}
		return 0
	})
	var out []uint64
	for _, w := range ws {
		out = append(out, w.tr.Seq)
	}
	return out
}

func TestRetentionDefaults(t *testing.T) {
	rec := NewRecorder(RecorderOptions{})
	if rec.ringCap != 256 || rec.worstK != 8 {
		t.Fatalf("defaults = (%d, %d), want (256, 8)", rec.ringCap, rec.worstK)
	}
}

// TestFlightRetention pins which set keeps which trace: the ring evicts
// oldest first, the worst-K set orders by score with ties keeping the
// earlier offer, and an offer reports the strongest retention that
// applied (must-keep, then worst-K, then none).
func TestFlightRetention(t *testing.T) {
	const n, v, w = notKept, keptViolator, keptWorst
	for _, tc := range []struct {
		name             string
		capacity, worstK int
		offers           []offered
		kept             []retention
		ring, worst      []uint64
	}{
		{
			name: "ring-evicts-oldest", capacity: 3, worstK: 1,
			offers: []offered{{1, 0, true}, {2, 0, true}, {3, 0, true}, {4, 0, true}, {5, 0, true}},
			kept:   []retention{v, v, v, v, v},
			ring:   []uint64{3, 4, 5}, worst: []uint64{1},
		},
		{
			name: "worst-k-ordering", capacity: 1, worstK: 3,
			offers: []offered{{0, 50, false}, {1, 10, false}, {2, 70, false}, {3, 30, false}, {4, 90, false}, {5, 20, false}},
			kept:   []retention{w, w, w, w, w, n},
			worst:  []uint64{4, 2, 0},
		},
		{
			// The heap's layout ends unsorted here, so this checks the
			// retained set and its order, not the layout.
			name: "worst-k-heap-order", capacity: 1, worstK: 5,
			offers: []offered{{0, 30, false}, {1, 10, false}, {2, 50, false}, {3, 20, false},
				{4, 40, false}, {5, 30, false}, {6, 5, false}, {7, 60, false}},
			kept:  []retention{w, w, w, w, w, w, n, w},
			worst: []uint64{7, 2, 4, 0, 5},
		},
		{
			name: "ties-keep-earlier", capacity: 1, worstK: 2,
			offers: []offered{{1, 40, false}, {2, 40, false}, {3, 40, false}},
			kept:   []retention{w, w, n},
			worst:  []uint64{1, 2},
		},
		{
			name: "must-keep-precedence", capacity: 2, worstK: 1,
			offers: []offered{{1, 100, true}, {2, 200, false}, {3, 1, false}},
			kept:   []retention{v, w, n},
			ring:   []uint64{1}, worst: []uint64{2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := NewRecorder(RecorderOptions{Capacity: tc.capacity, WorstK: tc.worstK})
			kept, _ := offerAll(rec, tc.offers)
			if !slices.Equal(kept, tc.kept) {
				t.Errorf("kept = %v, want %v", kept, tc.kept)
			}
			if got := ringSeqs(rec); !slices.Equal(got, tc.ring) {
				t.Errorf("ring = %v, want %v", got, tc.ring)
			}
			if got := worstSeqs(rec); !slices.Equal(got, tc.worst) {
				t.Errorf("worst = %v, want %v", got, tc.worst)
			}
			if rec.offered != uint64(len(tc.offers)) {
				t.Errorf("offered = %d, want %d", rec.offered, len(tc.offers))
			}
		})
	}
}

// TestFlightRecycling pins when a trace goes back on the free list: at
// the offer that leaves no set holding it, and for a trace held by both
// sets only when the second one lets it go, in either order.
func TestFlightRecycling(t *testing.T) {
	for _, tc := range []struct {
		name             string
		capacity, worstK int
		offers           []offered
		recycled         [][2]uint64 // {offering seq, recycled seq}
	}{
		{
			name: "declined", capacity: 2, worstK: 1,
			offers:   []offered{{1, 50, false}, {2, 10, false}},
			recycled: [][2]uint64{{2, 2}},
		},
		{
			// 1 tops the worst-K set for good; 2..5 are must-keep only.
			name: "ring-wrap", capacity: 2, worstK: 1,
			offers:   []offered{{1, 100, false}, {2, 1, true}, {3, 1, true}, {4, 1, true}, {5, 1, true}},
			recycled: [][2]uint64{{4, 2}, {5, 3}},
		},
		{
			name: "worst-displacement", capacity: 1, worstK: 2,
			offers:   []offered{{0, 10, false}, {1, 20, false}, {2, 30, false}, {3, 40, false}},
			recycled: [][2]uint64{{2, 0}, {3, 1}},
		},
		{
			// The ring evicts 1 at offer 2; the worst-K set lets it go at 3.
			name: "held-by-both-ring-first", capacity: 1, worstK: 1,
			offers:   []offered{{1, 50, true}, {2, 1, true}, {3, 60, false}},
			recycled: [][2]uint64{{3, 1}},
		},
		{
			// The worst-K set displaces 1 at offer 2; the ring evicts it at 4.
			name: "held-by-both-worst-first", capacity: 2, worstK: 1,
			offers:   []offered{{1, 50, true}, {2, 60, false}, {3, 1, true}, {4, 1, true}},
			recycled: [][2]uint64{{4, 1}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := NewRecorder(RecorderOptions{Capacity: tc.capacity, WorstK: tc.worstK})
			if _, got := offerAll(rec, tc.offers); !slices.Equal(got, tc.recycled) {
				t.Fatalf("recycled %v, want %v", got, tc.recycled)
			}
		})
	}
}

// mixedOffers is a long offer sequence with scattered scores and every
// third trace an SLO violator.
func mixedOffers(n int) []offered {
	var seq []offered
	for i := range n {
		seq = append(seq, offered{uint64(i), simtime.Duration((i * 37) % 101), i%3 == 0})
	}
	return seq
}

var mixedSizes = []struct{ capacity, worstK int }{{1, 1}, {2, 3}, {4, 3}, {8, 2}}

// TestFlightRecyclesExactlyOnce: over a long mixed sequence every
// offered trace is either still held or was recycled, never both and
// never twice.
func TestFlightRecyclesExactlyOnce(t *testing.T) {
	const offers = 500
	seq := mixedOffers(offers)
	for _, size := range mixedSizes {
		rec := NewRecorder(RecorderOptions{Capacity: size.capacity, WorstK: size.worstK})
		offerAll(rec, seq)
		recycled := map[uint64]int{}
		for _, tr := range rec.free {
			recycled[tr.Seq]++
		}
		held := map[uint64]bool{}
		for _, s := range slices.Concat(ringSeqs(rec), worstSeqs(rec)) {
			held[s] = true
		}
		for s := range uint64(offers) {
			if n := recycled[s]; (held[s] && n != 0) || (!held[s] && n != 1) {
				t.Fatalf("cap %d k %d: seq %d recycled %d times, held %v", size.capacity, size.worstK, s, n, held[s])
			}
		}
	}
}

// TestFlightRetentionIsDeterministic: the same offers retain the same
// sets, in the same order, and recycle the same traces.
func TestFlightRetentionIsDeterministic(t *testing.T) {
	seq := mixedOffers(500)
	for _, size := range mixedSizes {
		opts := RecorderOptions{Capacity: size.capacity, WorstK: size.worstK}
		rec, again := NewRecorder(opts), NewRecorder(opts)
		_, recycled := offerAll(rec, seq)
		_, recycledAgain := offerAll(again, seq)
		if !slices.Equal(ringSeqs(rec), ringSeqs(again)) || !slices.Equal(worstSeqs(rec), worstSeqs(again)) ||
			!slices.Equal(recycled, recycledAgain) {
			t.Fatalf("cap %d k %d: the same offers retained different sets", size.capacity, size.worstK)
		}
	}
}

// TestClaimRecyclesNothing: Claim drops the retained traces without
// recycling them (a caller may still hold them), and later offers
// recycle as on a fresh recorder.
func TestClaimRecyclesNothing(t *testing.T) {
	opts := RecorderOptions{Capacity: 2, WorstK: 2}
	after := []offered{{3, 1, false}, {4, 2, false}, {5, 3, false}}
	_, wantRecycled := offerAll(NewRecorder(opts), after)

	rec := NewRecorder(opts)
	offerAll(rec, []offered{{1, 50, true}, {2, 60, false}})
	free := len(rec.free)
	claim, err := rec.Claim()
	if err != nil {
		t.Fatal(err)
	}
	defer claim.Release()
	if len(rec.free) != free {
		t.Fatalf("Claim recycled %d traces, want none", len(rec.free)-free)
	}
	if _, recycled := offerAll(rec, after); !slices.Equal(recycled, wantRecycled) {
		t.Fatalf("after Claim recycled %v; a fresh recorder recycled %v", recycled, wantRecycled)
	}
}

// TestClaimResetsRetention: Claim empties both sets and restarts the
// offer numbering, so later offers retain as on a fresh recorder.
func TestClaimResetsRetention(t *testing.T) {
	opts := RecorderOptions{Capacity: 2, WorstK: 2}
	after := []offered{{5, 5, true}, {6, 5, true}, {7, 5, true}, {8, 1, false}}
	fresh := NewRecorder(opts)
	wantKept, _ := offerAll(fresh, after)

	rec := NewRecorder(opts)
	offerAll(rec, []offered{{1, 50, true}, {2, 60, false}, {3, 10, true}, {4, 20, true}})
	if rec.ringHead == 0 || len(rec.worst) == 0 {
		t.Fatal("setup did not wrap the ring and fill the worst-K set")
	}
	claim, err := rec.Claim()
	if err != nil {
		t.Fatal(err)
	}
	defer claim.Release()
	if len(rec.ring) != 0 || len(rec.worst) != 0 || rec.ringHead != 0 || rec.offered != 0 {
		t.Fatalf("after Claim: ring %d, worst %d, head %d, offered %d; want all zero",
			len(rec.ring), len(rec.worst), rec.ringHead, rec.offered)
	}
	if kept, _ := offerAll(rec, after); !slices.Equal(kept, wantKept) {
		t.Fatalf("after Claim kept %v; a fresh recorder kept %v", kept, wantKept)
	}
	if !slices.Equal(ringSeqs(rec), ringSeqs(fresh)) || !slices.Equal(worstSeqs(rec), worstSeqs(fresh)) {
		t.Fatalf("after Claim ring %v worst %v; fresh ring %v worst %v",
			ringSeqs(rec), worstSeqs(rec), ringSeqs(fresh), worstSeqs(fresh))
	}
}

// TestTracesListsEachRetainedTraceOnce: a trace held by both sets, and
// one the worst-K set still holds after the ring let it go, each appear
// once in Traces.
func TestTracesListsEachRetainedTraceOnce(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Capacity: 1, WorstK: 2})
	for _, step := range []struct {
		offer offered
		want  []uint64
	}{
		{offered{1, 100, true}, []uint64{1}},       // 1 in both sets
		{offered{2, 90, true}, []uint64{1, 2}},     // the ring lets 1 go; 2 in both
		{offered{3, 5, true}, []uint64{1, 2, 3}},   // the ring lets 2 go; 3 in the ring only
		{offered{4, 95, false}, []uint64{1, 3, 4}}, // 4 displaces 2 from the worst-K set
	} {
		offerAll(rec, []offered{step.offer})
		var got []uint64
		for _, tr := range rec.Traces() {
			got = append(got, tr.Seq)
		}
		if !slices.Equal(got, step.want) {
			t.Fatalf("after offer %d: Traces = %v, want %v", step.offer.seq, got, step.want)
		}
	}
}
