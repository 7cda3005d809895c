package flightrec

import (
	"reflect"
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
)

// releaseLog builds a buffer whose release func logs item ids in order.
func releaseLog(capacity, worstK int) (*Buffer[item], *[]int) {
	var log []int
	b := New(capacity, worstK, func(it item) simtime.Duration { return it.score }, func(it item) {
		log = append(log, it.id)
	})
	return b, &log
}

func TestReleaseDroppedOffer(t *testing.T) {
	b, log := releaseLog(2, 1)
	b.Offer(item{id: 1, score: 50}, false) // enters worst-K
	if got := b.Offer(item{id: 2, score: 10}, false); got != ReasonDropped {
		t.Fatalf("Offer = %q, want %q", got, ReasonDropped)
	}
	if want := []int{2}; !reflect.DeepEqual(*log, want) {
		t.Fatalf("released %v, want %v", *log, want)
	}
}

func TestReleaseOnRingWrap(t *testing.T) {
	b, log := releaseLog(2, 1)
	// id 1 tops the worst-K set for good; ids 2..5 are must-keep only.
	b.Offer(item{id: 1, score: 100}, false)
	for i := 2; i <= 5; i++ {
		b.Offer(item{id: i, score: 1}, true)
	}
	// The two-slot ring evicted 2 then 3, which nothing else held.
	if want := []int{2, 3}; !reflect.DeepEqual(*log, want) {
		t.Fatalf("released %v, want %v", *log, want)
	}
}

func TestReleaseOnWorstDisplacement(t *testing.T) {
	b, log := releaseLog(1, 2)
	for i, s := range []simtime.Duration{10, 20, 30, 40} {
		b.Offer(item{id: i, score: s}, false)
	}
	// Each higher score displaces the current minimum.
	if want := []int{0, 1}; !reflect.DeepEqual(*log, want) {
		t.Fatalf("released %v, want %v", *log, want)
	}
}

// An item in both compartments is released once, by whichever eviction
// removes it from the second one, in either order.
func TestReleaseItemHeldInBothSets(t *testing.T) {
	t.Run("ring-first", func(t *testing.T) {
		b, log := releaseLog(1, 1)
		b.Offer(item{id: 1, score: 50}, true) // ring and worst-K
		b.Offer(item{id: 2, score: 1}, true)  // ring evicts 1; worst-K keeps it
		if len(*log) != 0 {
			t.Fatalf("released %v while worst-K still holds id 1", *log)
		}
		b.Offer(item{id: 3, score: 60}, false) // worst-K displaces 1
		if want := []int{1}; !reflect.DeepEqual(*log, want) {
			t.Fatalf("released %v, want %v", *log, want)
		}
	})
	t.Run("worst-first", func(t *testing.T) {
		b, log := releaseLog(2, 1)
		b.Offer(item{id: 1, score: 50}, true)  // ring and worst-K
		b.Offer(item{id: 2, score: 60}, false) // worst-K displaces 1; ring keeps it
		if len(*log) != 0 {
			t.Fatalf("released %v while the ring still holds id 1", *log)
		}
		b.Offer(item{id: 3, score: 1}, true)
		b.Offer(item{id: 4, score: 1}, true) // ring evicts 1
		if want := []int{1}; !reflect.DeepEqual(*log, want) {
			t.Fatalf("released %v, want %v", *log, want)
		}
	})
}

func TestResetReleasesNothing(t *testing.T) {
	b, log := releaseLog(2, 2)
	b.Offer(item{id: 1, score: 50}, true)
	b.Offer(item{id: 2, score: 60}, false)
	b.Reset()
	if len(*log) != 0 {
		t.Fatalf("Reset released %v, want nothing", *log)
	}
	// Offers after Reset release as on a fresh buffer.
	b.Offer(item{id: 3, score: 1}, false)
	b.Offer(item{id: 4, score: 2}, false)
	b.Offer(item{id: 5, score: 3}, false)
	if want := []int{3}; !reflect.DeepEqual(*log, want) {
		t.Fatalf("released %v after Reset, want %v", *log, want)
	}
}

// Over a long mixed sequence, every offered item is either still held
// or was released, never both and never twice.
func TestReleaseExactlyOncePerOffer(t *testing.T) {
	for _, size := range []struct{ capacity, worstK int }{{1, 1}, {2, 3}, {4, 3}, {8, 2}} {
		released := map[int]int{}
		b := New(size.capacity, size.worstK, func(it item) simtime.Duration { return it.score }, func(it item) {
			released[it.id]++
		})
		const offers = 500
		for i := 0; i < offers; i++ {
			b.Offer(item{id: i, score: simtime.Duration((i * 37) % 101)}, i%3 == 0)
		}
		held := map[int]bool{}
		for _, it := range b.Ring() {
			held[it.id] = true
		}
		for _, it := range b.Worst() {
			held[it.id] = true
		}
		for id := 0; id < offers; id++ {
			n := released[id]
			if held[id] && n != 0 {
				t.Fatalf("cap %d k %d: id %d released %d times but still held", size.capacity, size.worstK, id, n)
			}
			if !held[id] && n != 1 {
				t.Fatalf("cap %d k %d: id %d released %d times, want 1", size.capacity, size.worstK, id, n)
			}
		}
	}
}
