package psm

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/horse-faas/horse/internal/testutil"
)

// buildTarget returns a target list with the given keys and a Precomputed
// armed over it. Merge splices every posA key on the calling goroutine, so
// every test built on this helper also verifies it starts no goroutine.
func buildTarget(t *testing.T, keys ...int64) (*List[int], *Precomputed[int]) {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	target := NewList[int]()
	for i, k := range keys {
		target.Insert(k, i)
	}
	p := NewPrecomputed(target)
	if err := p.Validate(); err != nil {
		t.Fatalf("fresh precompute invalid: %v", err)
	}
	return target, p
}

func assertKeys(t *testing.T, l *List[int], want ...int64) {
	t.Helper()
	got := keysOf(l)
	if len(got) != len(want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
}

func TestMergeIntoMiddle(t *testing.T) {
	target, p := buildTarget(t, 10, 20, 30)
	p.AddSource(15, -1)
	p.AddSource(25, -2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 2 || res.Merged != 2 {
		t.Fatalf("result = %+v, want 2 groups / 2 merged", res)
	}
	assertKeys(t, target, 10, 15, 20, 25, 30)
	if target.Len() != 5 {
		t.Fatalf("target length = %d, want 5", target.Len())
	}
	if p.Source().Len() != 0 {
		t.Fatal("source not drained")
	}
	if p.Ready() {
		t.Fatal("precompute still ready after merge")
	}
}

func TestMergeBeforeHead(t *testing.T) {
	target, p := buildTarget(t, 10, 20)
	p.AddSource(1, 0)
	p.AddSource(2, 0)
	if _, err := p.Merge(); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, target, 1, 2, 10, 20)
}

func TestMergeAfterTail(t *testing.T) {
	target, p := buildTarget(t, 10, 20)
	p.AddSource(30, 0)
	if _, err := p.Merge(); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, target, 10, 20, 30)
}

func TestMergeIntoEmptyTarget(t *testing.T) {
	target, p := buildTarget(t)
	p.AddSource(3, 0)
	p.AddSource(1, 0)
	p.AddSource(2, 0)
	res, err := p.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 1 {
		t.Fatalf("groups = %d, want 1 (single run before sentinel)", res.Groups)
	}
	assertKeys(t, target, 1, 2, 3)
}

func TestMergeEmptySource(t *testing.T) {
	target, p := buildTarget(t, 5)
	res, err := p.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 0 || res.Merged != 0 {
		t.Fatalf("result = %+v, want zero", res)
	}
	assertKeys(t, target, 5)
}

func TestMergeEqualKeysQueueBehindTarget(t *testing.T) {
	target, p := buildTarget(t, 10, 20)
	e := p.AddSource(20, 999) // equal to target key: splices after it
	if e.Key() != 20 {
		t.Fatal("element key mismatch")
	}
	if _, err := p.Merge(); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, target, 10, 20, 20)
	// FIFO among equals: the pre-existing target element stays first.
	if nth(target, 1).Value() == 999 {
		t.Fatal("merged element jumped ahead of equal-key target element")
	}
}

func TestMergeNotReady(t *testing.T) {
	_, p := buildTarget(t, 1)
	p.AddSource(2, 0)
	if _, err := p.Merge(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Merge(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("second merge err = %v, want ErrNotReady", err)
	}
}

func TestRebuildReArms(t *testing.T) {
	target, p := buildTarget(t, 10)
	p.AddSource(5, 0)
	if _, err := p.Merge(); err != nil {
		t.Fatal(err)
	}
	p.Rebuild()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.AddSource(7, 0)
	if _, err := p.Merge(); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, target, 5, 7, 10)
}

func TestTargetInsertedSplitsGroup(t *testing.T) {
	target, p := buildTarget(t, 10, 30)
	p.AddSource(12, 0)
	p.AddSource(25, 0) // both splice after position 0 (key 10)
	if p.GroupCount() != 1 {
		t.Fatalf("groups = %d, want 1", p.GroupCount())
	}
	// The ull_runqueue gains an element between them.
	e, _ := target.Insert(20, 0)
	if err := p.TargetInserted(e, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.GroupCount() != 2 {
		t.Fatalf("groups after split = %d, want 2", p.GroupCount())
	}
	if _, err := p.Merge(); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, target, 10, 12, 20, 25, 30)
}

func TestTargetInsertedWholeGroupMoves(t *testing.T) {
	target, p := buildTarget(t, 10, 30)
	p.AddSource(25, 0)
	p.AddSource(27, 0)
	e, _ := target.Insert(20, 0) // all source keys >= 20: whole run re-keys
	if err := p.TargetInserted(e, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Merge(); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, target, 10, 20, 25, 27, 30)
}

func TestTargetRemovedMergesGroups(t *testing.T) {
	target, p := buildTarget(t, 10, 20, 30)
	p.AddSource(15, 0) // group keyed 0
	p.AddSource(25, 0) // group keyed 1
	removed := nth(target, 1)
	target.Remove(removed)
	if err := p.TargetRemoved(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.GroupCount() != 1 {
		t.Fatalf("groups = %d, want 1 after merge", p.GroupCount())
	}
	if _, err := p.Merge(); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, target, 10, 15, 25, 30)
}

func TestTargetRemovedHead(t *testing.T) {
	target, p := buildTarget(t, 10, 20)
	p.AddSource(15, 0)
	removed := nth(target, 0)
	target.Remove(removed)
	if err := p.TargetRemoved(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Merge(); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, target, 15, 20)
}

func TestTargetPositionsOutOfRange(t *testing.T) {
	_, p := buildTarget(t, 10)
	if err := p.TargetInserted(&Element[int]{}, 5); err == nil {
		t.Fatal("TargetInserted out of range accepted")
	}
	if err := p.TargetRemoved(3); err == nil {
		t.Fatal("TargetRemoved out of range accepted")
	}
}

func TestMemoryFootprintGrowsWithStructures(t *testing.T) {
	_, small := buildTarget(t, 1, 2, 3)
	big := NewList[int]()
	for i := 0; i < 1000; i++ {
		big.Insert(int64(i), i)
	}
	p := NewPrecomputed(big)
	if p.MemoryFootprint() <= small.MemoryFootprint() {
		t.Fatal("footprint did not grow with target size")
	}
}

func TestMergeSequentialBaselineMatches(t *testing.T) {
	targetA, pa := buildTarget(t, 10, 20, 30)
	targetB, pb := buildTarget(t, 10, 20, 30)
	for _, k := range []int64{5, 15, 15, 35} {
		pa.AddSource(k, 0)
		pb.AddSource(k, 0)
	}
	if _, err := pa.Merge(); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.MergeSequentialBaseline(); err != nil {
		t.Fatal(err)
	}
	ka, kb := keysOf(targetA), keysOf(targetB)
	if len(ka) != len(kb) {
		t.Fatalf("lengths differ: %v vs %v", ka, kb)
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("P²SM %v != sequential %v", ka, kb)
		}
	}
}

// Property (the core P²SM correctness claim): for arbitrary target and
// source key multisets, Merge produces exactly the sorted union that the
// sequential baseline produces, and the target stays sorted. The positions
// MergeFunc reports each address their element in the merged target,
// ascend strictly, and name every source element exactly once.
func TestMergeEquivalenceProperty(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	type placement struct {
		e   *Element[int]
		pos int
	}
	f := func(targetKeys, sourceKeys []int16) bool {
		target := NewList[int]()
		for _, k := range targetKeys {
			target.Insert(int64(k), 0)
		}
		p := NewPrecomputed(target)
		for _, k := range sourceKeys {
			p.AddSource(int64(k), 1)
		}
		if p.Validate() != nil {
			return false
		}
		var sources []*Element[int]
		for e := p.Source().Front(); e != nil; e = e.Next() {
			sources = append(sources, e)
		}
		var placed []placement
		if _, err := p.MergeFunc(func(e *Element[int], pos int) {
			placed = append(placed, placement{e, pos})
		}); err != nil {
			return false
		}
		if !target.IsSorted() {
			return false
		}
		// Reports come in source order, so matching the source slice
		// element by element proves each was reported exactly once.
		if len(placed) != len(sources) {
			return false
		}
		for i, pl := range placed {
			if pl.e != sources[i] || nth(target, pl.pos) != pl.e {
				return false
			}
			if i > 0 && pl.pos <= placed[i-1].pos {
				return false
			}
		}
		if target.Len() != len(targetKeys)+len(sourceKeys) {
			return false
		}
		want := make([]int64, 0, target.Len())
		for _, k := range targetKeys {
			want = append(want, int64(k))
		}
		for _, k := range sourceKeys {
			want = append(want, int64(k))
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := keysOf(target)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the continuous-maintenance path (paper §4.1.3) — interleaved
// source adds and target inserts/removes — always leaves the
// structures valid, and a final merge is still exact.
func TestMaintenanceProperty(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	f := func(ops []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		target := NewList[int]()
		p := NewPrecomputed(target)
		for _, op := range ops {
			key := int64(rng.Intn(100))
			switch op % 3 {
			case 0: // add to source
				p.AddSource(key, 0)
			case 1: // ull_runqueue gains an element
				pos := target.InsertPosition(key)
				e, _ := target.Insert(key, 0)
				if p.TargetInserted(e, pos) != nil {
					return false
				}
			case 2: // ull_runqueue loses an element
				if target.Len() > 0 {
					pos := rng.Intn(target.Len())
					target.Remove(nth(target, pos))
					if p.TargetRemoved(pos) != nil {
						return false
					}
				}
			}
			if p.Validate() != nil {
				return false
			}
		}
		wantLen := target.Len() + p.Source().Len()
		if _, err := p.Merge(); err != nil {
			return false
		}
		return target.IsSorted() && target.Len() == wantLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
