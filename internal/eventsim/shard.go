package eventsim

import (
	"errors"
	"fmt"
	"sync"
)

// ErrClosed is returned by Each after Close: a closed group has no
// workers, and silently serving the barrier inline would turn a
// sharded run into a sequential one without anyone noticing.
var ErrClosed = errors.New("eventsim: shard group is closed")

// ShardGroup is the barrier primitive of the conservative-PDES cluster
// run (DESIGN.md §13): it executes one closure per busy shard in
// lockstep — Each returns only when every busy shard's closure has.
// All cross-shard state (router scores, fault mutations, report
// accumulation) belongs to the caller and must only be touched between
// Each calls, which is what makes a sharded simulation deterministic:
// the goroutines never interleave on shared state, they only bound
// which shard serves which node. The shardsafe/phaseann analyzers
// enforce that split statically: Each may only be called from a
// //horselint:coordinator function, and each handler literal is a
// shard-phase root.
//
// The lowest busy shard runs on the caller's goroutine, and only the
// other busy shards' parked workers are woken. Shard 0 is never handed
// off, so a group of n shards owns n−1 persistent workers, one each
// for shards 1..n−1, and a group of one spawns no goroutines at all: a
// single-shard run is truly sequential, not "parallel with one
// worker".
type ShardGroup struct {
	n int
	// wake[s-1] parks shard s's worker between barriers.
	wake []chan struct{}
	// fn, errs and wg are one barrier's hand-off: the caller sets fn
	// before waking a worker, and each worker writes its own errs slot
	// before marking wg done. Close reuses wg to wait for the workers
	// to exit.
	fn   func(shard int) error
	errs []error
	wg   sync.WaitGroup

	closed bool
}

// NewShardGroup builds a group of n shards (n < 1 is treated as 1) and
// starts its n−1 workers. The caller must Close the group to stop them.
//
//horselint:coordinator
func NewShardGroup(n int) *ShardGroup {
	if n < 1 {
		n = 1
	}
	g := &ShardGroup{n: n, wake: make([]chan struct{}, n-1), errs: make([]error, n)}
	for i := range g.wake {
		ch := make(chan struct{})
		g.wake[i] = ch
		shard := i + 1
		go func() {
			for range ch {
				g.errs[shard] = g.fn(shard)
				g.wg.Done()
			}
			g.wg.Done()
		}()
	}
	return g
}

// Shards returns the group's shard count (≥ 1).
func (g *ShardGroup) Shards() int { return g.n }

// Each runs fn(shard) once for every shard busy marks and blocks until
// all have returned — one barrier step. A nil busy set marks every
// shard; otherwise it must hold one entry per shard. Shard errors are
// joined in shard-index order, so the combined error is deterministic
// regardless of which shard finished first. Each on a closed group
// returns ErrClosed.
//
//horselint:coordinator
func (g *ShardGroup) Each(busy []bool, fn func(shard int) error) error {
	if g.closed {
		return ErrClosed
	}
	if busy != nil && len(busy) != g.n {
		return fmt.Errorf("eventsim: busy set has %d entries for %d shards", len(busy), g.n)
	}
	g.fn = fn
	inline := -1
	for s := 0; s < g.n; s++ {
		if busy != nil && !busy[s] {
			continue
		}
		if inline < 0 {
			inline = s
			continue
		}
		g.wg.Add(1)
		g.wake[s-1] <- struct{}{}
	}
	if inline >= 0 {
		g.errs[inline] = fn(inline)
	}
	g.wg.Wait()
	err := errors.Join(g.errs...)
	clear(g.errs)
	return err
}

// Close stops the workers and waits for them to exit. Close is
// idempotent; after it, Each reports ErrClosed (even for a 1-shard
// group, whose barrier was inline and spawned no workers).
//
//horselint:coordinator
func (g *ShardGroup) Close() {
	if g.closed {
		return
	}
	g.wg.Add(len(g.wake))
	for _, ch := range g.wake {
		close(ch)
	}
	g.wg.Wait()
	g.wake = nil
	g.closed = true
}
