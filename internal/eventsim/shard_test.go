package eventsim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/testutil"
)

func TestShardGroupEachRunsEveryShard(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	g := NewShardGroup(4)
	defer g.Close()
	if g.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", g.Shards())
	}
	var hits [4]atomic.Uint64
	for round := 0; round < 3; round++ {
		if err := g.Each(nil, func(shard int) error {
			hits[shard].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range hits {
		if got := hits[i].Load(); got != 3 {
			t.Fatalf("shard %d ran %d times, want 3", i, got)
		}
	}
}

func TestShardGroupSingleShardIsInline(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	g := NewShardGroup(1)
	defer g.Close()
	if g.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", g.Shards())
	}
	// A 1-shard group must run on the caller's goroutine: driving an
	// engine from the closure is then exactly as safe as driving it
	// directly, with no cross-goroutine clock hand-off.
	e := New(nil)
	if _, err := e.Schedule(10, func(simtime.Time) {}); err != nil {
		t.Fatal(err)
	}
	if err := g.Each(nil, func(shard int) error { return e.Run(0) }); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 10 {
		t.Fatalf("engine clock = %v, want 10", e.Now())
	}
}

func TestShardGroupJoinsErrorsInShardOrder(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	g := NewShardGroup(3)
	defer g.Close()
	errA := errors.New("a")
	errB := errors.New("b")
	err := g.Each(nil, func(shard int) error {
		switch shard {
		case 0:
			return errB
		case 2:
			return errA
		}
		return nil
	})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("joined error %v does not carry both shard errors", err)
	}
	// Joined in shard-index order, regardless of completion order.
	if want := "b\na"; err.Error() != want {
		t.Fatalf("joined error = %q, want %q", err.Error(), want)
	}
}

func TestShardGroupDrivesEnginesInParallelDeterministically(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// One engine per shard, each with its own event chain: the barrier
	// must produce the same per-engine end state no matter how the
	// workers interleave.
	const shards = 4
	run := func() []simtime.Time {
		g := NewShardGroup(shards)
		defer g.Close()
		engines := make([]*Engine, shards)
		for i := range engines {
			engines[i] = New(nil)
			for k := 0; k < 100; k++ {
				at := simtime.Time((i + 1) * (k + 1))
				if _, err := engines[i].Schedule(at, func(simtime.Time) {}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := g.Each(nil, func(shard int) error {
			return engines[shard].Run(0)
		}); err != nil {
			t.Fatal(err)
		}
		out := make([]simtime.Time, shards)
		for i, e := range engines {
			if e.Len() != 0 {
				return nil
			}
			out[i] = e.Now()
		}
		return out
	}
	a, b := run(), run()
	if a == nil || b == nil {
		t.Fatal("engines did not drain")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shard %d clock diverged across runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestShardGroupCloseStopsWorkers(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, n := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			g := NewShardGroup(n)
			if err := g.Each(nil, func(int) error { return nil }); err != nil {
				t.Fatal(err)
			}
			// Only the inline shard is busy: workers that were never
			// woken by this barrier must still exit on Close.
			busy := make([]bool, n)
			busy[0] = true
			if err := g.Each(busy, func(int) error { return nil }); err != nil {
				t.Fatal(err)
			}
			g.Close()
		})
	}
}

func TestShardGroupEachAfterCloseReturnsErrClosed(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, n := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			g := NewShardGroup(n)
			g.Close()
			g.Close() // idempotent
			ran := false
			err := g.Each(nil, func(int) error { ran = true; return nil })
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("Each after Close = %v, want ErrClosed", err)
			}
			if ran {
				t.Fatal("Each after Close must not run the handler (a closed multi-shard group would silently degrade to an inline single shard)")
			}
		})
	}
}

// onCaller reports whether the running handler was called from Each on
// the caller's goroutine rather than from a parked worker.
func onCaller() bool {
	buf := make([]byte, 8<<10)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*ShardGroup).Each(")
}

func TestShardGroupEachRunsOnlyBusyShards(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	g := NewShardGroup(4)
	defer g.Close()
	var hits, inline [4]atomic.Uint64
	busy := []bool{false, true, false, true}
	if err := g.Each(busy, func(shard int) error {
		hits[shard].Add(1)
		if onCaller() {
			inline[shard].Add(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		want := uint64(0)
		if busy[i] {
			want = 1
		}
		if hits[i].Load() != want {
			t.Errorf("shard %d (busy %v) ran %d times, want %d", i, busy[i], hits[i].Load(), want)
		}
	}
	// The lowest busy shard is served by the caller; the other busy
	// shard by its worker.
	if inline[1].Load() != 1 || inline[3].Load() != 0 {
		t.Errorf("inline runs per shard = [%d %d %d %d], want only shard 1 on the caller",
			inline[0].Load(), inline[1].Load(), inline[2].Load(), inline[3].Load())
	}
}

func TestShardGroupEachAllIdleCallsNothing(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			g := NewShardGroup(n)
			defer g.Close()
			ran := false
			if err := g.Each(make([]bool, n), func(int) error { ran = true; return errors.New("ran") }); err != nil {
				t.Fatalf("all-idle Each = %v, want nil", err)
			}
			if ran {
				t.Fatal("all-idle Each ran a handler")
			}
		})
	}
}

func TestShardGroupEachRejectsMisSizedBusySet(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, tc := range []struct {
		shards int
		busy   []bool
	}{
		{1, []bool{}},
		{1, []bool{true, true}},
		{4, []bool{true, true, true}},
		{4, make([]bool, 5)},
	} {
		t.Run(fmt.Sprintf("shards-%d-busy-%d", tc.shards, len(tc.busy)), func(t *testing.T) {
			g := NewShardGroup(tc.shards)
			defer g.Close()
			ran := false
			err := g.Each(tc.busy, func(int) error { ran = true; return nil })
			if err == nil {
				t.Fatal("mis-sized busy set accepted")
			}
			if ran {
				t.Fatal("mis-sized busy set ran a handler")
			}
			// The group is still usable afterwards.
			if err := g.Each(nil, func(int) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestShardGroupJoinsInlineAndWorkerErrorsInShardOrder(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	g := NewShardGroup(4)
	defer g.Close()
	// Shard 1 runs inline; shards 2 and 3 on workers, and shard 2 waits
	// for shard 3 to finish first, so completion order is 1 or 3 before
	// 2 — the join must still read in shard order.
	third := make(chan struct{})
	err := g.Each([]bool{false, true, true, true}, func(shard int) error {
		switch shard {
		case 2:
			<-third
		case 3:
			close(third)
		}
		return fmt.Errorf("shard %d", shard)
	})
	if want := "shard 1\nshard 2\nshard 3"; err == nil || err.Error() != want {
		t.Fatalf("joined error = %v, want %q", err, want)
	}
	// Error slots do not leak into the next barrier.
	if err := g.Each([]bool{true, false, false, false}, func(int) error { return nil }); err != nil {
		t.Fatalf("next barrier = %v, want nil", err)
	}
}
