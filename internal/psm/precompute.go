package psm

import (
	"errors"
	"fmt"
	"slices"
)

// ErrNotReady is returned by Merge when the precomputed state has been
// consumed by a previous merge and not rebuilt.
var ErrNotReady = errors.New("psm: precomputed state not ready (call Rebuild)")

// group is one posA entry: a consecutive run of source-list elements that
// splices immediately after target position key. head/tail delimit the
// run *within the source list* (the run is contiguous there because both
// lists are sorted by the same key).
type group[V any] struct {
	key   int
	head  *Element[V]
	tail  *Element[V]
	count int
}

// Precomputed maintains the two auxiliary structures P²SM needs to merge a
// source list A into a target list B in O(1) (paper §4.1.1):
//
//   - arrayB (the positional index of B), and
//   - posA (position-in-B → run-of-A), stored here as one slice of
//     groups sorted by splice key and reused across Rebuild/Merge cycles.
//
// In HORSE, one Precomputed exists per paused uLL sandbox: the source is
// the sandbox's merge_vcpus list and the target is the reserved
// ull_runqueue. The structures are kept current by calling AddSource
// when a vCPU joins the sandbox's merge list and TargetInserted /
// TargetRemoved whenever the ull_runqueue changes (paper §4.1.3).
//
// Maintenance costs (documented per paper §4.1.1, with the honest
// complexity of this implementation in parentheses):
//
//   - AddSource: O(|B|) position scan + O(1) group insert (as in paper);
//   - TargetInserted/TargetRemoved: the paper claims O(1); a positional
//     index cannot be updated in true O(1), so this implementation pays
//     O(|B|) for the arrayB shift and O(#groups + group size) for in-place
//     key renumbering and boundary split/merge. #groups <= |A| (the vCPU
//     count, <= 36 in every experiment), so the practical cost matches
//     the paper's "negligible" characterization.
//
// Precomputed is not safe for concurrent use; HORSE serializes structure
// maintenance and the merge under the pause/resume lock.
type Precomputed[V any] struct {
	target *List[V]
	source *List[V]
	arrayB []*Element[V]
	groups []group[V] // posA, ascending by key
	ready  bool
}

// NewPrecomputed builds the auxiliary structures for merging into target.
// The source list starts empty; populate it with AddSource.
func NewPrecomputed[V any](target *List[V]) *Precomputed[V] {
	p := &Precomputed[V]{source: NewList[V]()}
	p.Reset(target)
	return p
}

// Reset re-targets p at target with an empty source list, as
// NewPrecomputed would build it, keeping p's own memory: the source
// list header, the posA slice, and arrayB when its capacity is exactly
// the target's length (otherwise arrayB is rebuilt at that exact size,
// so MemoryFootprint reads as on a fresh Precomputed). Elements still
// linked in the source list are dropped from it; reset only a
// Precomputed whose merge consumed them, or whose elements the caller
// discards.
func (p *Precomputed[V]) Reset(target *List[V]) {
	p.target = target
	p.source.Clear()
	if cap(p.arrayB) != target.Len() {
		p.arrayB = nil
	}
	p.Rebuild()
}

// Source returns the source list A (merge_vcpus). Callers must mutate it
// only through AddSource so the groups stay consistent.
func (p *Precomputed[V]) Source() *List[V] { return p.source }

// Target returns the target list B.
func (p *Precomputed[V]) Target() *List[V] { return p.target }

// GroupCount returns the number of posA keys: the number of splices a
// Merge performs, and the number of merge threads Algorithm 1 would run
// (the simulator models those threads in virtual time, see
// vmm.CostModel.PSMMerge and sched.PriorityMerge).
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
		groupBytes   = 4 * 8 // key, head, tail pointers + count
	)
	return cap(p.arrayB)*pointerBytes + len(p.groups)*groupBytes
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
	p.groups = p.groups[:0]
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
	return p.AddSourceElement(new(Element[V]), key, value)
}

// AddSourceElement is AddSource into an element the caller recycles,
// such as a run-queue element its queue has just removed: e must
// belong to no list. Its key and value are overwritten. It returns e.
func (p *Precomputed[V]) AddSourceElement(e *Element[V], key int64, value V) *Element[V] {
	*e = Element[V]{key: key, value: value}
	p.source.insertElement(e)
	p.attachToGroup(e)
	return e
}

// find returns the index of the group keyed k, or the index where it
// would be inserted, and whether it exists.
func (p *Precomputed[V]) find(k int) (int, bool) {
	return slices.BinarySearchFunc(p.groups, k, func(g group[V], k int) int { return g.key - k })
}

// attachToGroup registers an already-linked source element in posA.
func (p *Precomputed[V]) attachToGroup(e *Element[V]) {
	k := p.spliceKeyFor(e.key)
	i, ok := p.find(k)
	if !ok {
		p.groups = slices.Insert(p.groups, i, group[V]{key: k, head: e, tail: e, count: 1})
		return
	}
	g := &p.groups[i]
	if e.key < g.head.key {
		g.head = e
	}
	if e.key >= g.tail.key {
		g.tail = e
	}
	g.count++
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

	for i := range p.groups {
		if p.groups[i].key >= pos {
			p.groups[i].key++
		}
	}
	p.splitGroupAt(pos-1, e.key)
	return nil
}

// splitGroupAt splits the group keyed lowKey: elements with key >= splitKey
// move to a new group keyed lowKey+1 (they now splice after the newly
// inserted target element, whose key was just vacated).
func (p *Precomputed[V]) splitGroupAt(lowKey int, splitKey int64) {
	i, ok := p.find(lowKey)
	if !ok {
		return
	}
	g := &p.groups[i]
	// Find the first element of the run with key >= splitKey.
	var prev *Element[V]
	cur, remaining := g.head, 0
	for ; remaining < g.count && cur.key < splitKey; remaining++ {
		prev, cur = cur, cur.next
	}
	switch remaining {
	case 0:
		// Whole run moves to the high side.
		g.key++
	case g.count:
		// Whole run stays.
	default:
		high := group[V]{key: lowKey + 1, head: cur, tail: g.tail, count: g.count - remaining}
		g.tail = prev
		g.count = remaining
		p.groups = slices.Insert(p.groups, i+1, high)
	}
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

	if i, ok := p.find(pos); ok {
		if orphan := p.groups[i]; i > 0 && p.groups[i-1].key == pos-1 {
			// Adjacent runs in the source list concatenate.
			p.groups[i-1].tail = orphan.tail
			p.groups[i-1].count += orphan.count
			p.groups = slices.Delete(p.groups, i, i+1)
		} else {
			p.groups[i].key = pos - 1
		}
	}
	for i := range p.groups {
		if p.groups[i].key > pos {
			p.groups[i].key--
		}
	}
	return nil
}

// MergeResult describes one completed P²SM merge.
type MergeResult struct {
	// Groups is the number of posA keys, i.e. the number of splices
	// performed (Algorithm 1 runs one merge thread per key).
	Groups int
	// Merged is the number of source elements now linked into the target.
	Merged int
}

// Merge performs Algorithm 1: each posA key's run is spliced by rewiring
// two next pointers. After Merge the source list is empty, the target
// contains every element, and the precomputed state is consumed (Ready
// reports false until Rebuild).
//
// The work per key is O(1) and the number of keys is the number of
// distinct splice points (<= |A|), independent of |B| — the O(1) claim of
// paper §4.1.2. The paper runs one merge thread per key; their pointer
// sets are disjoint, so splicing the keys in turn on the calling goroutine
// yields the same list, and the threads' cost is modelled in virtual time
// (vmm.CostModel.PSMMerge, sched.PriorityMerge).
func (p *Precomputed[V]) Merge() (MergeResult, error) { return p.MergeFunc(nil) }

// MergeFunc is Merge that also reports, when placed is non-nil, every
// spliced element with its final 0-based target position, in ascending
// position order. A position is the splice key plus one plus the number
// of elements already spliced, so reporting costs O(|A|) and never walks
// the target. When placed runs, every element at a lower position is
// already linked and the target's length counts it.
func (p *Precomputed[V]) MergeFunc(placed func(e *Element[V], pos int)) (MergeResult, error) {
	if !p.ready {
		return MergeResult{}, ErrNotReady
	}
	res := MergeResult{Groups: len(p.groups), Merged: p.source.Len()}
	spliced := 0
	for _, g := range p.groups {
		prev := p.arrayAt(g.key)
		g.tail.next = prev.next
		prev.next = g.head
		p.target.length += g.count
		if placed == nil {
			continue
		}
		for e, i := g.head, 0; i < g.count; e, i = e.next, i+1 {
			placed(e, g.key+1+spliced)
			spliced++
		}
	}
	p.source.Clear()
	p.groups = p.groups[:0]
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
	p.groups = p.groups[:0]
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
	for i, g := range p.groups {
		k := g.key
		if i > 0 && k <= p.groups[i-1].key {
			return fmt.Errorf("psm: group key %d not above its predecessor %d", k, p.groups[i-1].key)
		}
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
