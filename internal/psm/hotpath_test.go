package psm

import "testing"

// Allocation pin for the observer path: every ull_runqueue insert and
// remove reaches each paused sandbox's Precomputed, so once its slices
// have grown, a TargetInserted that splits a group and the TargetRemoved
// that joins it again must not allocate.
func TestHotPathAllocFree(t *testing.T) {
	target, p := buildTarget(t, 10, 20, 30)
	p.AddSource(12, 0)
	p.AddSource(18, 0) // one group after key 10, split by a 15 insert
	p.AddSource(25, 0)

	e := &Element[int]{key: 15}
	cycle := func() {
		pos := target.insertElement(e)
		if err := p.TargetInserted(e, pos); err != nil {
			t.Fatal(err)
		}
		if p.GroupCount() != 3 {
			t.Fatalf("groups after insert = %d, want 3 (split)", p.GroupCount())
		}
		target.Remove(e)
		if err := p.TargetRemoved(pos); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm: arrayB and posA reach their working capacity
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("TargetInserted+TargetRemoved allocates %v per run, want 0", n)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.GroupCount() != 2 {
		t.Fatalf("groups after cycles = %d, want 2 (rejoined)", p.GroupCount())
	}
}
