package snapshot

import (
	"errors"
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/vmm"
)

func newStore(t *testing.T) (*Store, *simtime.Clock) {
	t.Helper()
	clock := simtime.NewClock()
	return NewStore(clock), clock
}

func TestCreateChargesTime(t *testing.T) {
	s, clock := newStore(t)
	snap, err := s.Create(vmm.Config{VCPUs: 1, MemoryMB: 512}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now() == 0 {
		t.Fatal("create charged no virtual time")
	}
	if snap.TotalPages != 512*256 { // 512 MB / 4 KB
		t.Fatalf("TotalPages = %d, want %d", snap.TotalPages, 512*256)
	}
	if snap.WorkingSetPages != int(float64(snap.TotalPages)*0.05) {
		t.Fatalf("WorkingSetPages = %d", snap.WorkingSetPages)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if got := s.snaps[snap.ID]; got != snap {
		t.Fatalf("stored snapshot = %v, want %v", got, snap)
	}
}

func TestCreateValidation(t *testing.T) {
	s, _ := newStore(t)
	if _, err := s.Create(vmm.Config{VCPUs: 0, MemoryMB: 512}, 0.05); err == nil {
		t.Fatal("zero vCPUs accepted")
	}
	if _, err := s.Create(vmm.Config{VCPUs: 1, MemoryMB: 512}, 0); !errors.Is(err, ErrBadWorkingSet) {
		t.Fatalf("ws=0 err = %v", err)
	}
	if _, err := s.Create(vmm.Config{VCPUs: 1, MemoryMB: 512}, 1.5); !errors.Is(err, ErrBadWorkingSet) {
		t.Fatalf("ws=1.5 err = %v", err)
	}
}

func TestRestoreCostCalibration(t *testing.T) {
	// Table 1: restore ≈ 1300 µs for the 512 MB / 5% working-set microVM.
	s, _ := newStore(t)
	snap, err := s.Create(vmm.Config{VCPUs: 1, MemoryMB: 512}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cost := s.RestoreCost(snap)
	if cost < 1200*simtime.Microsecond || cost > 1400*simtime.Microsecond {
		t.Fatalf("restore cost = %v, want ≈1300µs", cost)
	}
}

func TestRestoreCreatesSandbox(t *testing.T) {
	h, err := vmm.New(vmm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clock := h.Clock()
	s := NewStore(clock)
	snap, err := s.Create(vmm.Config{VCPUs: 2, MemoryMB: 256}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	before := clock.Now()
	sb, err := s.Restore(h, snap)
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now().Sub(before) != s.RestoreCost(snap) {
		t.Fatal("restore charged wrong cost")
	}
	if sb.NumVCPUs() != 2 || sb.MemoryMB() != 256 {
		t.Fatalf("restored sandbox %d vCPUs / %d MB", sb.NumVCPUs(), sb.MemoryMB())
	}
	if sb.State() != vmm.StateRunning {
		t.Fatalf("state = %v", sb.State())
	}
}

func TestRestoreUnknownSnapshot(t *testing.T) {
	h, err := vmm.New(vmm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(h.Clock())
	bogus := &Snapshot{ID: "nope", Config: vmm.Config{VCPUs: 1, MemoryMB: 64}}
	if _, err := s.Restore(h, bogus); !errors.Is(err, ErrUnknownSnapshot) {
		t.Fatalf("err = %v, want ErrUnknownSnapshot", err)
	}
}

func TestTinyMemoryStillHasOnePage(t *testing.T) {
	s, _ := newStore(t)
	snap, err := s.Create(vmm.Config{VCPUs: 1, MemoryMB: 1}, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if snap.WorkingSetPages < 1 {
		t.Fatal("working set rounded to zero pages")
	}
}
