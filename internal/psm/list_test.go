package psm

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// keysOf returns l's keys front to back.
func keysOf[V any](l *List[V]) []int64 {
	var out []int64
	for e := l.Front(); e != nil; e = e.Next() {
		out = append(out, e.Key())
	}
	return out
}

// nth returns l's element at 0-based position i.
func nth[V any](l *List[V], i int) *Element[V] {
	e := l.Front()
	for ; i > 0; i-- {
		e = e.Next()
	}
	return e
}

func TestListInsertKeepsSorted(t *testing.T) {
	l := NewList[string]()
	for _, k := range []int64{5, 1, 9, 3, 7} {
		l.Insert(k, "v")
	}
	want := []int64{1, 3, 5, 7, 9}
	got := keysOf(l)
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
	var got []string
	for e := l.Front(); e != nil; e = e.Next() {
		got = append(got, e.Value())
	}
	if want := []string{"before", "first", "second", "third"}; !slices.Equal(got, want) {
		t.Fatalf("values = %v, want %v", got, want)
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
		if got != want || nth(l, got) != e {
			t.Errorf("Insert(%d) reported position %d, want %d", tt.give, got, want)
		}
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
	got := keysOf(dst)
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
		got := keysOf(l)
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
