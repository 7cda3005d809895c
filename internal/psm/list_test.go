package psm

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestListInsertKeepsSorted(t *testing.T) {
	l := NewList[string]()
	for _, k := range []int64{5, 1, 9, 3, 7} {
		l.Insert(k, "v")
	}
	want := []int64{1, 3, 5, 7, 9}
	got := l.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d, want 5", l.Len())
	}
	if !l.IsSorted() {
		t.Fatal("IsSorted = false")
	}
}

func TestListEqualKeysFIFO(t *testing.T) {
	l := NewList[string]()
	l.Insert(2, "first")
	l.Insert(2, "second")
	l.Insert(2, "third")
	l.Insert(1, "before")
	got := l.Values()
	want := []string{"before", "first", "second", "third"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v, want %v", got, want)
		}
	}
}

func TestListInsertPosition(t *testing.T) {
	l := NewList[int]()
	for _, k := range []int64{10, 20, 20, 30} {
		l.Insert(k, 0)
	}
	tests := []struct {
		give int64
		want int
	}{
		{give: 5, want: 0},
		{give: 10, want: 1},
		{give: 15, want: 1},
		{give: 20, want: 3}, // after both equal keys (FIFO)
		{give: 25, want: 3},
		{give: 30, want: 4},
		{give: 99, want: 4},
	}
	for _, tt := range tests {
		if got := l.InsertPosition(tt.give); got != tt.want {
			t.Errorf("InsertPosition(%d) = %d, want %d", tt.give, got, tt.want)
		}
	}
	// Insert lands where InsertPosition predicts and reports it from its
	// own walk.
	for _, tt := range tests {
		want := l.InsertPosition(tt.give)
		e, got := l.Insert(tt.give, 0)
		if got != want || l.At(got) != e {
			t.Errorf("Insert(%d) reported position %d, want %d", tt.give, got, want)
		}
	}
}

func TestListAt(t *testing.T) {
	l := NewList[int]()
	e0, _ := l.Insert(1, 100)
	e1, _ := l.Insert(2, 200)
	if l.At(0) != e0 || l.At(1) != e1 {
		t.Fatal("At returned wrong elements")
	}
	if l.At(-1) != nil || l.At(2) != nil {
		t.Fatal("At out of range should return nil")
	}
}

func TestListRemove(t *testing.T) {
	l := NewList[int]()
	a, _ := l.Insert(1, 0)
	b, _ := l.Insert(2, 0)
	c, _ := l.Insert(3, 0)
	if !l.Remove(b) {
		t.Fatal("Remove(middle) = false")
	}
	if l.Remove(b) {
		t.Fatal("Remove twice succeeded")
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if !l.Remove(a) || !l.Remove(c) {
		t.Fatal("Remove head/tail failed")
	}
	if l.Len() != 0 || l.Front() != nil {
		t.Fatal("list not empty after removing all")
	}
}

func TestListPopFront(t *testing.T) {
	l := NewList[int]()
	if l.PopFront() != nil {
		t.Fatal("PopFront on empty returned element")
	}
	l.Insert(2, 20)
	l.Insert(1, 10)
	e := l.PopFront()
	if e == nil || e.Key() != 1 || e.Value() != 10 {
		t.Fatalf("PopFront = %v, want key 1", e)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestListClear(t *testing.T) {
	l := NewList[int]()
	l.Insert(1, 0)
	l.Insert(2, 0)
	l.Clear()
	if l.Len() != 0 || l.Front() != nil {
		t.Fatal("Clear left elements behind")
	}
}

func TestSequentialMerge(t *testing.T) {
	dst := NewList[int]()
	src := NewList[int]()
	for _, k := range []int64{1, 5, 9} {
		dst.Insert(k, 0)
	}
	for _, k := range []int64{0, 4, 5, 10} {
		src.Insert(k, 1)
	}
	SequentialMerge(dst, src)
	if src.Len() != 0 {
		t.Fatalf("source not drained: %d left", src.Len())
	}
	want := []int64{0, 1, 4, 5, 5, 9, 10}
	got := dst.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
	if !dst.IsSorted() {
		t.Fatal("merged list not sorted")
	}
}

// Property: inserting any sequence of keys yields exactly the multiset,
// sorted, with length bookkeeping intact.
func TestListInsertProperty(t *testing.T) {
	f := func(keys []int16) bool {
		l := NewList[struct{}]()
		for _, k := range keys {
			l.Insert(int64(k), struct{}{})
		}
		if l.Len() != len(keys) {
			return false
		}
		got := l.Keys()
		want := make([]int64, len(keys))
		for i, k := range keys {
			want[i] = int64(k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return l.IsSorted()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: random interleavings of inserts and removes keep the list
// sorted and the length correct.
func TestListMutationProperty(t *testing.T) {
	f := func(ops []int16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewList[struct{}]()
		var live []*Element[struct{}]
		for _, op := range ops {
			if op >= 0 || len(live) == 0 {
				e, _ := l.Insert(int64(op), struct{}{})
				live = append(live, e)
			} else {
				i := rng.Intn(len(live))
				if !l.Remove(live[i]) {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if l.Len() != len(live) || !l.IsSorted() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveIf(t *testing.T) {
	l := NewList[int]()
	for _, k := range []int64{1, 2, 3, 4, 5, 6} {
		l.Insert(k, int(k))
	}
	removed := l.RemoveIf(func(e *Element[int]) bool { return e.Key()%2 == 0 })
	if removed != 3 {
		t.Fatalf("removed = %d, want 3", removed)
	}
	want := []int64{1, 3, 5}
	got := l.Keys()
	if len(got) != len(want) {
		t.Fatalf("keys = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	// Removing everything, including head runs.
	if n := l.RemoveIf(func(*Element[int]) bool { return true }); n != 3 {
		t.Fatalf("removed = %d, want 3", n)
	}
	if l.Len() != 0 || l.Front() != nil {
		t.Fatal("list not empty")
	}
	// No-op on empty list.
	if n := l.RemoveIf(func(*Element[int]) bool { return true }); n != 0 {
		t.Fatalf("removed = %d on empty", n)
	}
}
