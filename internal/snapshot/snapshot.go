// Package snapshot models the snapshot/restore baseline of the paper's
// evaluation (the "restore" scenario, Table 1 and Figure 4).
//
// The paper uses FaaSnap, which restores a microVM from a snapshot by
// eagerly mapping the function's working set and lazily faulting the rest.
// The dominant restore cost is therefore proportional to the working-set
// page count, plus a fixed VM-state restoration cost. This package models
// exactly that: a snapshot records the sandbox configuration and its
// working set, and Restore charges base + perPage·workingSetPages virtual
// time — calibrated to the paper's 1300 µs for a 512 MB microVM.
package snapshot

import (
	"errors"
	"fmt"

	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/vmm"
)

// PageSize is the guest page granularity.
const PageSize = 4096

// Errors reported by the store.
var (
	ErrUnknownSnapshot = errors.New("snapshot: unknown snapshot")
	ErrBadWorkingSet   = errors.New("snapshot: working-set fraction out of (0,1]")
)

// CostModel holds the restore-path constants.
type CostModel struct {
	// CreateBase is the fixed cost of cutting a snapshot (VM state
	// serialization).
	CreateBase simtime.Duration
	// CreatePerPage is the per-dirty-page cost of writing memory out.
	CreatePerPage simtime.Duration
	// RestoreBase is the fixed cost of restoring VM state.
	RestoreBase simtime.Duration
	// RestorePerPage is the per-working-set-page mapping cost.
	RestorePerPage simtime.Duration
}

// DefaultCostModel calibrates restore to ≈1300 µs for a 512 MB sandbox
// with a 5% working set (6554 pages): 250 µs + 6554·160 ns ≈ 1.3 ms.
func DefaultCostModel() CostModel {
	return CostModel{
		CreateBase:     500 * simtime.Microsecond,
		CreatePerPage:  220 * simtime.Nanosecond,
		RestoreBase:    250 * simtime.Microsecond,
		RestorePerPage: 160 * simtime.Nanosecond,
	}
}

// Snapshot is one stored sandbox image.
type Snapshot struct {
	// ID names the snapshot.
	ID string
	// Config is the sandbox configuration the snapshot restores into.
	Config vmm.Config
	// WorkingSetPages is the number of pages FaaSnap-style restore maps
	// eagerly.
	WorkingSetPages int
	// TotalPages is the full guest memory size in pages.
	TotalPages int
	// CreatedAt is the virtual instant the snapshot was cut.
	CreatedAt simtime.Time
}

// Store keeps snapshots and charges virtual time for create/restore.
type Store struct {
	clock  *simtime.Clock
	costs  CostModel
	snaps  map[string]*Snapshot
	nextID int
}

// NewStore returns an empty snapshot store charging DefaultCostModel.
func NewStore(clock *simtime.Clock) *Store {
	return &Store{
		clock: clock,
		costs: DefaultCostModel(),
		snaps: make(map[string]*Snapshot),
	}
}

// Len returns the number of stored snapshots.
func (s *Store) Len() int { return len(s.snaps) }

// Create cuts a snapshot of a sandbox configuration with the given
// working-set fraction (0,1], charging the create cost.
func (s *Store) Create(cfg vmm.Config, workingSetFraction float64) (*Snapshot, error) {
	if cfg.VCPUs < 1 || cfg.MemoryMB <= 0 {
		return nil, fmt.Errorf("snapshot: invalid config %+v", cfg)
	}
	if workingSetFraction <= 0 || workingSetFraction > 1 {
		return nil, fmt.Errorf("%w: %v", ErrBadWorkingSet, workingSetFraction)
	}
	totalPages := cfg.MemoryMB * (1 << 20) / PageSize
	wsPages := int(float64(totalPages) * workingSetFraction)
	if wsPages < 1 {
		wsPages = 1
	}
	s.clock.Advance(s.costs.CreateBase + simtime.Duration(wsPages)*s.costs.CreatePerPage)

	s.nextID++
	snap := &Snapshot{
		ID:              fmt.Sprintf("snap%d", s.nextID),
		Config:          cfg,
		WorkingSetPages: wsPages,
		TotalPages:      totalPages,
		CreatedAt:       s.clock.Now(),
	}
	s.snaps[snap.ID] = snap
	return snap, nil
}

// RestoreCost returns the virtual time a restore of snap will take.
func (s *Store) RestoreCost(snap *Snapshot) simtime.Duration {
	return s.costs.RestoreBase + simtime.Duration(snap.WorkingSetPages)*s.costs.RestorePerPage
}

// Restore charges the restore cost and returns a running sandbox created
// on the hypervisor from the snapshot's configuration.
func (s *Store) Restore(h *vmm.Hypervisor, snap *Snapshot) (*vmm.Sandbox, error) {
	if _, ok := s.snaps[snap.ID]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSnapshot, snap.ID)
	}
	s.clock.Advance(s.RestoreCost(snap))
	return h.CreateSandbox(snap.Config)
}
