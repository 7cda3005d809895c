package flightrec

import (
	"reflect"
	"sync"
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/testutil"
)

type item struct {
	id    int
	score simtime.Duration
}

func newTestBuffer(capacity, worstK int) *Buffer[item] {
	return New(capacity, worstK, func(it item) simtime.Duration { return it.score }, nil)
}

func ids(items []item) []int {
	out := make([]int, 0, len(items))
	for _, it := range items {
		out = append(out, it.id)
	}
	return out
}

func TestNilBufferIsInert(t *testing.T) {
	var b *Buffer[item]
	if got := b.Offer(item{id: 1}, true); got != ReasonDropped {
		t.Fatalf("nil Offer = %q, want %q", got, ReasonDropped)
	}
	if b.Ring() != nil || b.Worst() != nil {
		t.Fatal("nil buffer returned non-nil contents")
	}
}

func TestDefaultsApplied(t *testing.T) {
	b := New(0, 0, func(it item) simtime.Duration { return it.score }, nil)
	if b.cap != DefaultCapacity || b.k != DefaultWorstK {
		t.Fatalf("defaults = (%d, %d), want (%d, %d)", b.cap, b.k, DefaultCapacity, DefaultWorstK)
	}
}

func TestMustKeepRingEvictsOldest(t *testing.T) {
	b := newTestBuffer(3, 1)
	for i := 1; i <= 5; i++ {
		if got := b.Offer(item{id: i}, true); got != ReasonMustKeep {
			t.Fatalf("Offer(%d) = %q, want %q", i, got, ReasonMustKeep)
		}
	}
	if got, want := ids(b.Ring()), []int{3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Ring = %v, want %v", got, want)
	}
}

func TestWorstKOrderingAndDisplacement(t *testing.T) {
	b := newTestBuffer(1, 3)
	scores := []simtime.Duration{50, 10, 70, 30, 90, 20}
	for i, s := range scores {
		b.Offer(item{id: i, score: s}, false)
	}
	// Worst three by score: 90 (id 4), 70 (id 2), 50 (id 0), descending.
	if got, want := ids(b.Worst()), []int{4, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Worst = %v, want %v", got, want)
	}
}

func TestWorstKTiesKeepEarlierOffer(t *testing.T) {
	b := newTestBuffer(1, 2)
	b.Offer(item{id: 1, score: 40}, false)
	b.Offer(item{id: 2, score: 40}, false)
	if got := b.Offer(item{id: 3, score: 40}, false); got != ReasonDropped {
		t.Fatalf("tied late offer = %q, want %q", got, ReasonDropped)
	}
	if got, want := ids(b.Worst()), []int{1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Worst after ties = %v, want %v (earlier offers survive)", got, want)
	}
}

func TestOfferReasonPrecedence(t *testing.T) {
	b := newTestBuffer(2, 1)
	// A must-keep item that also tops the worst-K set reports must-keep.
	if got := b.Offer(item{id: 1, score: 100}, true); got != ReasonMustKeep {
		t.Fatalf("Offer = %q, want %q", got, ReasonMustKeep)
	}
	// A non-violator with a higher score enters worst-K only.
	if got := b.Offer(item{id: 2, score: 200}, false); got != ReasonWorstK {
		t.Fatalf("Offer = %q, want %q", got, ReasonWorstK)
	}
	// A low-score non-violator is aggregated but not retained.
	if got := b.Offer(item{id: 3, score: 1}, false); got != ReasonDropped {
		t.Fatalf("Offer = %q, want %q", got, ReasonDropped)
	}
	if b.offered != 3 {
		t.Fatalf("offered = %d, want 3", b.offered)
	}
}

func TestDeterministicRetention(t *testing.T) {
	run := func() ([]int, []int) {
		b := newTestBuffer(4, 3)
		for i := 0; i < 64; i++ {
			b.Offer(item{id: i, score: simtime.Duration((i * 37) % 101)}, i%7 == 0)
		}
		return ids(b.Ring()), ids(b.Worst())
	}
	ring1, worst1 := run()
	ring2, worst2 := run()
	if !reflect.DeepEqual(ring1, ring2) || !reflect.DeepEqual(worst1, worst2) {
		t.Fatalf("same offer sequence retained different sets:\nring %v vs %v\nworst %v vs %v",
			ring1, ring2, worst1, worst2)
	}
}

// TestConcurrentOffers drives the buffer from several goroutines, the
// shape a shared cluster-wide recorder sees when node goroutines record
// concurrently. Run under -race (CI does); correctness here is counter
// consistency and bounded retention, since cross-goroutine offer order
// is unspecified.
func TestConcurrentOffers(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	b := newTestBuffer(8, 4)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				b.Offer(item{id: w*perWorker + i, score: simtime.Duration(i)}, i%17 == 0)
			}
		}(w)
	}
	wg.Wait()
	if got, want := b.offered, uint64(workers*perWorker); got != want {
		t.Fatalf("offered = %d, want %d", got, want)
	}
	if got := len(b.Ring()); got != 8 {
		t.Fatalf("ring occupancy = %d, want 8", got)
	}
	worst := b.Worst()
	if len(worst) != 4 {
		t.Fatalf("worst occupancy = %d, want 4", len(worst))
	}
	for i := 1; i < len(worst); i++ {
		if worst[i].score > worst[i-1].score {
			t.Fatalf("Worst not descending at %d: %v", i, worst)
		}
	}
	// Every worker offered a 199-score item, so the worst set is all 199s.
	for _, it := range worst {
		if it.score != 199 {
			t.Fatalf("worst retained score %d, want 199", it.score)
		}
	}
}

func TestResetReturnsBufferToFreshState(t *testing.T) {
	b := newTestBuffer(2, 2)
	for i := 0; i < 5; i++ {
		b.Offer(item{id: i, score: simtime.Duration(i * 10)}, true)
	}
	if len(b.Ring()) == 0 || len(b.Worst()) == 0 {
		t.Fatal("setup did not populate ring and worst-K")
	}

	b.Reset()

	if got := b.Ring(); len(got) != 0 {
		t.Fatalf("Ring after Reset = %v, want empty", got)
	}
	if got := b.Worst(); len(got) != 0 {
		t.Fatalf("Worst after Reset = %v, want empty", got)
	}
	if b.offered != 0 || b.head != 0 {
		t.Fatalf("after Reset offered = %d, head = %d; want both zero", b.offered, b.head)
	}

	// The buffer must behave exactly like a freshly built one: offer
	// sequencing restarts, so tie-breaks and ring eviction replay the
	// fresh-buffer retention decisions.
	for i := 0; i < 3; i++ {
		b.Offer(item{id: 100 + i, score: 5}, true)
	}
	if got := ids(b.Ring()); len(got) != 2 || got[0] != 101 || got[1] != 102 {
		t.Fatalf("Ring after Reset+offers = %v, want [101 102]", got)
	}
	if got := ids(b.Worst()); len(got) != 2 || got[0] != 100 || got[1] != 101 {
		t.Fatalf("Worst after Reset+offers = %v, want earliest offers [100 101]", got)
	}
}

func TestResetNilBuffer(t *testing.T) {
	var b *Buffer[item]
	b.Reset() // must not panic
}
