package psm

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNotReady is returned by Merge when the precomputed state has been
// consumed by a previous merge and not rebuilt.
var ErrNotReady = errors.New("psm: precomputed state not ready (call Rebuild)")

// group is one posA entry: a consecutive run of source-list elements that
// splices immediately after a single target position. head/tail delimit the
// run *within the source list* (the run is contiguous there because both
// lists are sorted by the same key).
type group[V any] struct {
	head  *Element[V]
	tail  *Element[V]
	count int
}

// Precomputed maintains the two auxiliary structures P²SM needs to merge a
// source list A into a target list B in O(1) (paper §4.1.1):
//
//   - arrayB (the positional index of B), and
//   - posA (the map position-in-B → run-of-A), stored here as groups.
//
// In HORSE, one Precomputed exists per paused uLL sandbox: the source is
// the sandbox's merge_vcpus list and the target is the reserved
// ull_runqueue. The structures are kept current by calling AddSource /
// RemoveSource when the sandbox's vCPU set changes and TargetInserted /
// TargetRemoved whenever the ull_runqueue changes (paper §4.1.3).
//
// Maintenance costs (documented per paper §4.1.1, with the honest
// complexity of this implementation in parentheses):
//
//   - AddSource: O(|B|) position scan + O(1) group insert (as in paper);
//   - RemoveSource: O(|A|) worst case (as in paper);
//   - TargetInserted/TargetRemoved: the paper claims O(1); a positional
//     index cannot be updated in true O(1), so this implementation pays
//     O(|B|) for the arrayB shift and O(#groups + group size) for key
//     renumbering and boundary split/merge. #groups <= |A| (the vCPU
//     count, <= 36 in every experiment), so the practical cost matches
//     the paper's "negligible" characterization.
//
// Precomputed is not safe for concurrent use; HORSE serializes structure
// maintenance under the pause/resume lock. The Merge phase itself runs
// its goroutines without locks, exactly as Algorithm 1 specifies.
type Precomputed[V any] struct {
	target *List[V]
	source *List[V]
	arrayB []*Element[V]
	groups map[int]*group[V]
	ready  bool
}

// NewPrecomputed builds the auxiliary structures for merging into target.
// The source list starts empty; populate it with AddSource.
func NewPrecomputed[V any](target *List[V]) *Precomputed[V] {
	p := &Precomputed[V]{
		target: target,
		source: NewList[V](),
	}
	p.Rebuild()
	return p
}

// Source returns the source list A (merge_vcpus). Callers must mutate it
// only through AddSource/RemoveSource so the groups stay consistent.
func (p *Precomputed[V]) Source() *List[V] { return p.source }

// Target returns the target list B.
func (p *Precomputed[V]) Target() *List[V] { return p.target }

// GroupCount returns the number of posA keys, which is also the number of
// goroutines a Merge will spawn.
func (p *Precomputed[V]) GroupCount() int { return len(p.groups) }

// Ready reports whether the structures are current and a Merge may run.
func (p *Precomputed[V]) Ready() bool { return p.ready }

// MemoryFootprint returns the approximate heap bytes held by the auxiliary
// structures (arrayB slots plus group descriptors). Used by the §5.2
// overhead experiment: the structures mostly *reference* existing run
// queue and vCPU objects, which is why the paper measures only ~528 KB
// for ten paused sandboxes.
func (p *Precomputed[V]) MemoryFootprint() int {
	const (
		pointerBytes = 8
		groupBytes   = 3 * 8 // head, tail pointers + count
		mapEntry     = 8 + groupBytes
	)
	return cap(p.arrayB)*pointerBytes + len(p.groups)*mapEntry
}

// Rebuild reconstructs arrayB from the current target and re-derives every
// group key from the source elements. It must be called after a Merge to
// re-arm the structures (HORSE instead discards the Precomputed of the
// resumed sandbox and updates the others via TargetInserted).
func (p *Precomputed[V]) Rebuild() {
	p.arrayB = p.arrayB[:0]
	if cap(p.arrayB) < p.target.Len() {
		p.arrayB = make([]*Element[V], 0, p.target.Len())
	}
	for e := p.target.Front(); e != nil; e = e.Next() {
		p.arrayB = append(p.arrayB, e)
	}
	p.groups = make(map[int]*group[V])
	for e := p.source.Front(); e != nil; e = e.Next() {
		p.attachToGroup(e)
	}
	p.ready = true
}

// arrayAt resolves a posA key to the target element after which a group
// splices. Key -1 addresses the sentinel ("before the first element").
func (p *Precomputed[V]) arrayAt(k int) *Element[V] {
	if k == -1 {
		return p.target.head()
	}
	return p.arrayB[k]
}

// spliceKeyFor returns the posA key for a source element with the given
// sort key: the position of the last target element with key <= k, or -1
// if the element precedes the whole target.
func (p *Precomputed[V]) spliceKeyFor(key int64) int {
	return p.target.InsertPosition(key) - 1
}

// AddSource inserts a new element into the source list and registers it in
// its group, creating the group if needed. It returns the new element.
func (p *Precomputed[V]) AddSource(key int64, value V) *Element[V] {
	e, _ := p.source.Insert(key, value)
	p.attachToGroup(e)
	return e
}

// attachToGroup registers an already-linked source element in posA.
func (p *Precomputed[V]) attachToGroup(e *Element[V]) {
	k := p.spliceKeyFor(e.key)
	g := p.groups[k]
	if g == nil {
		p.groups[k] = &group[V]{head: e, tail: e, count: 1}
		return
	}
	if e.key < g.head.key {
		g.head = e
	}
	if e.key >= g.tail.key {
		g.tail = e
	}
	g.count++
}

// RemoveSource unlinks a source element and updates its group. It reports
// whether the element was present.
func (p *Precomputed[V]) RemoveSource(e *Element[V]) bool {
	k := p.spliceKeyFor(e.key)
	g := p.groups[k]
	if g == nil || !p.groupContains(g, e) {
		return false
	}
	// Fix the group's boundaries before the list forgets e's links.
	if g.count == 1 {
		delete(p.groups, k)
	} else {
		switch {
		case g.head == e:
			g.head = e.next
		case g.tail == e:
			g.tail = p.predecessorInGroup(g, e)
			if g.tail == nil {
				return false
			}
		}
		g.count--
	}
	return p.source.Remove(e)
}

// groupContains reports whether e appears in the group's run.
func (p *Precomputed[V]) groupContains(g *group[V], e *Element[V]) bool {
	for cur := g.head; ; cur = cur.next {
		if cur == e {
			return true
		}
		if cur == g.tail || cur == nil {
			return false
		}
	}
}

// predecessorInGroup walks the group's run to find the element before e.
func (p *Precomputed[V]) predecessorInGroup(g *group[V], e *Element[V]) *Element[V] {
	for cur := g.head; cur != nil && cur != g.tail.next; cur = cur.next {
		if cur.next == e {
			return cur
		}
	}
	return nil
}

// TargetInserted records that the target list gained element e at 0-based
// position pos. The caller must have already performed the insertion (via
// List.Insert). Groups keyed at or beyond pos shift by one, and the group
// straddling the insertion point splits on the new element's key.
func (p *Precomputed[V]) TargetInserted(e *Element[V], pos int) error {
	if pos < 0 || pos > len(p.arrayB) {
		return fmt.Errorf("psm: TargetInserted position %d out of range [0,%d]", pos, len(p.arrayB))
	}
	p.arrayB = append(p.arrayB, nil)
	copy(p.arrayB[pos+1:], p.arrayB[pos:])
	p.arrayB[pos] = e

	if len(p.groups) > 0 {
		shifted := make(map[int]*group[V], len(p.groups))
		for k, g := range p.groups {
			if k >= pos {
				k++
			}
			shifted[k] = g
		}
		p.groups = shifted
		p.splitGroupAt(pos-1, pos, e.key)
	}
	return nil
}

// splitGroupAt splits the group keyed lowKey: elements with key >= splitKey
// move to a new group keyed highKey (they now splice after the newly
// inserted target element).
func (p *Precomputed[V]) splitGroupAt(lowKey, highKey int, splitKey int64) {
	g := p.groups[lowKey]
	if g == nil {
		return
	}
	// Find the first element of the run with key >= splitKey.
	var prev *Element[V]
	cur := g.head
	moved := 0
	for i := 0; i < g.count && cur.key < splitKey; i++ {
		prev = cur
		cur = cur.next
	}
	if prev == nil {
		// Whole run moves to the high side.
		delete(p.groups, lowKey)
		p.groups[highKey] = g
		return
	}
	remaining := 0
	for e := g.head; e != prev.next; e = e.next {
		remaining++
	}
	moved = g.count - remaining
	if moved == 0 {
		return
	}
	p.groups[highKey] = &group[V]{head: cur, tail: g.tail, count: moved}
	g.tail = prev
	g.count = remaining
}

// TargetRemoved records that the target element formerly at 0-based
// position pos was removed (the caller already unlinked it). The group
// that spliced after the removed element merges into its predecessor
// group, and later keys shift down.
func (p *Precomputed[V]) TargetRemoved(pos int) error {
	if pos < 0 || pos >= len(p.arrayB) {
		return fmt.Errorf("psm: TargetRemoved position %d out of range [0,%d)", pos, len(p.arrayB))
	}
	copy(p.arrayB[pos:], p.arrayB[pos+1:])
	p.arrayB[len(p.arrayB)-1] = nil
	p.arrayB = p.arrayB[:len(p.arrayB)-1]

	if len(p.groups) == 0 {
		return nil
	}
	orphan := p.groups[pos]
	if orphan != nil {
		delete(p.groups, pos)
		if below := p.groups[pos-1]; below != nil {
			// Adjacent runs in the source list concatenate.
			below.tail = orphan.tail
			below.count += orphan.count
		} else {
			p.groups[pos-1] = orphan
		}
	}
	shifted := make(map[int]*group[V], len(p.groups))
	for k, g := range p.groups {
		if k > pos {
			k--
		}
		shifted[k] = g
	}
	p.groups = shifted
	return nil
}

// MergeResult describes one completed P²SM merge.
type MergeResult struct {
	// Groups is the number of posA keys, i.e. the number of splice
	// goroutines that ran ("threads" in Algorithm 1).
	Groups int
	// Merged is the number of source elements now linked into the target.
	Merged int
}

// Merge performs Algorithm 1: one goroutine per posA key, each rewiring
// two next pointers, with no locking — the pointer sets are disjoint by
// construction. After Merge the source list is empty, the target contains
// every element, and the precomputed state is consumed (Ready reports
// false until Rebuild).
//
// The work per goroutine is O(1) and the number of goroutines is the
// number of distinct splice points (<= |A|), independent of |B| — this is
// the O(1) claim of paper §4.1.2, which BenchmarkPSMMergeFlat verifies
// with wall-clock measurements across |B| spanning three orders of
// magnitude.
func (p *Precomputed[V]) Merge() (MergeResult, error) {
	if !p.ready {
		return MergeResult{}, ErrNotReady
	}
	res := MergeResult{Groups: len(p.groups), Merged: p.source.Len()}

	var wg sync.WaitGroup
	wg.Add(len(p.groups))
	for k, g := range p.groups {
		go func(k int, g *group[V]) {
			defer wg.Done()
			prev := p.arrayAt(k)
			tmp := prev.next
			prev.next = g.head
			g.tail.next = tmp
		}(k, g)
	}
	wg.Wait()

	p.target.length += p.source.Len()
	p.source.Clear()
	p.groups = make(map[int]*group[V])
	p.ready = false
	return res, nil
}

// MergeSequentialBaseline drains the source into the target with per-
// element sorted insertion — the vanilla step ④ behaviour — so benchmarks
// can compare the two under identical setups. The precomputed state is
// consumed just like Merge.
func (p *Precomputed[V]) MergeSequentialBaseline() (MergeResult, error) {
	if !p.ready {
		return MergeResult{}, ErrNotReady
	}
	res := MergeResult{Groups: len(p.groups), Merged: p.source.Len()}
	SequentialMerge(p.target, p.source)
	p.groups = make(map[int]*group[V])
	p.ready = false
	return res, nil
}

// Validate cross-checks the auxiliary structures against the lists and
// returns the first inconsistency found. Tests and failure-injection
// harnesses call it after every mutation.
func (p *Precomputed[V]) Validate() error {
	if !p.ready {
		return ErrNotReady
	}
	if len(p.arrayB) != p.target.Len() {
		return fmt.Errorf("psm: arrayB length %d != target length %d", len(p.arrayB), p.target.Len())
	}
	i := 0
	for e := p.target.Front(); e != nil; e = e.Next() {
		if p.arrayB[i] != e {
			return fmt.Errorf("psm: arrayB[%d] does not address target position %d", i, i)
		}
		i++
	}
	total := 0
	for k, g := range p.groups {
		if k < -1 || k >= p.target.Len() {
			return fmt.Errorf("psm: group key %d out of range [-1,%d)", k, p.target.Len())
		}
		if g.count <= 0 || g.head == nil || g.tail == nil {
			return fmt.Errorf("psm: group %d malformed", k)
		}
		n := 1
		for e := g.head; e != g.tail; e = e.next {
			if e == nil {
				return fmt.Errorf("psm: group %d run broken before tail", k)
			}
			n++
		}
		if n != g.count {
			return fmt.Errorf("psm: group %d count %d != run length %d", k, g.count, n)
		}
		for e := g.head; ; e = e.next {
			if got := p.spliceKeyFor(e.key); got != k {
				return fmt.Errorf("psm: element key %d in group %d should splice at %d", e.key, k, got)
			}
			if e == g.tail {
				break
			}
		}
		total += g.count
	}
	if total != p.source.Len() {
		return fmt.Errorf("psm: groups cover %d elements, source has %d", total, p.source.Len())
	}
	return nil
}
