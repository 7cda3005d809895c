package eventsim

import (
	"sync/atomic"
	"testing"

	"github.com/horse-faas/horse/internal/testutil"
)

// pinHits counts handler runs per shard for the allocation pin; a
// package-level counter keeps the handler literal non-capturing.
var pinHits [4]atomic.Uint64

// TestHotPathAllocFree pins the serve barrier allocation-free: Each
// keeps its handler, error slots and WaitGroup in the group, so a
// barrier over every shard, over one, or over none allocates nothing
// once the group exists. A handler that captures state still costs
// its own closure at the call site; that is the caller's allocation.
func TestHotPathAllocFree(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	g := NewShardGroup(len(pinHits))
	defer g.Close()
	handler := func(shard int) error {
		pinHits[shard].Add(1)
		return nil
	}
	for _, tc := range []struct {
		name string
		busy []bool
		want [len(pinHits)]uint64
	}{
		{"all", nil, [len(pinHits)]uint64{1, 1, 1, 1}},
		{"one", []bool{false, false, true, false}, [len(pinHits)]uint64{0, 0, 1, 0}},
		{"none", make([]bool, len(pinHits)), [len(pinHits)]uint64{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := range pinHits {
				pinHits[i].Store(0)
			}
			const runs = 100
			n := testing.AllocsPerRun(runs, func() {
				if err := g.Each(tc.busy, handler); err != nil {
					t.Fatal(err)
				}
			})
			if n != 0 {
				t.Errorf("Each allocates %v per run, want 0", n)
			}
			// AllocsPerRun makes one warm-up call before the measured runs.
			for i := range pinHits {
				if got, want := pinHits[i].Load(), tc.want[i]*(runs+1); got != want {
					t.Errorf("shard %d ran %d times, want %d", i, got, want)
				}
			}
		})
	}
}
