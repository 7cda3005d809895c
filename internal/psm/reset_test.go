package psm

import "testing"

// TestResetRearmsInPlace pins Reset and AddSourceElement: a consumed
// precompute re-targeted at another list reads exactly as a fresh one —
// empty source, valid structures, the same MemoryFootprint — and
// re-arms its source with elements the caller recycles, so a warm
// reset-fill-merge cycle allocates nothing.
func TestResetRearmsInPlace(t *testing.T) {
	first, p := buildTarget(t, 10, 20, 30)
	p.AddSource(15, 1)
	p.AddSource(25, 2)
	if _, err := p.Merge(); err != nil {
		t.Fatal(err)
	}

	second := NewList[int]()
	for _, k := range []int64{5, 40} {
		second.Insert(k, 0)
	}
	p.Reset(second)
	fresh := NewPrecomputed(second)
	if err := p.Validate(); err != nil {
		t.Fatalf("reset precompute invalid: %v", err)
	}
	if p.Target() != second || p.Source().Len() != 0 || p.GroupCount() != 0 || !p.Ready() {
		t.Fatalf("reset precompute: target moved %v, source %d, groups %d, ready %v",
			p.Target() == second, p.Source().Len(), p.GroupCount(), p.Ready())
	}
	if got, want := p.MemoryFootprint(), fresh.MemoryFootprint(); got != want {
		t.Fatalf("reset MemoryFootprint = %d, fresh = %d", got, want)
	}

	// The elements the first merge spliced into first are recycled once
	// first drops them.
	a, b := nth(first, 1), nth(first, 3) // keys 15 and 25
	first.Remove(a)
	first.Remove(b)
	if got := p.AddSourceElement(a, 30, 7); got != a || a.Key() != 30 || a.Value() != 7 {
		t.Fatalf("AddSourceElement returned %p key %d value %d, want %p with key 30 value 7", got, a.Key(), a.Value(), a)
	}
	p.AddSourceElement(b, 1, 8)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Merge(); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, second, 1, 5, 30, 40)
	assertKeys(t, first, 10, 20, 30)

	// Warm cycle, as a paused sandbox's: unlink the two elements from
	// the target, reset, fill the source from them, merge them back.
	cycle := func() {
		second.Remove(a)
		second.Remove(b)
		p.Reset(second)
		p.AddSourceElement(a, 3, 0)
		p.AddSourceElement(b, 4, 0)
		if _, err := p.Merge(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Reset+AddSourceElement+Merge allocates %v per run, want 0", n)
	}
}
