// Package credit2 implements credit-based proportional-share accounting
// in the style of Xen's credit2 scheduler, the scheduling policy the
// paper uses as its running example: "with the credit2 scheduler in Xen,
// the run queues will be sorted based on their credit to have the
// process with the least remaining credit first in a run queue" (§3.1).
//
// The accounting provides the *sort attribute* of every run queue in
// this repository. Entities burn credit in proportion to the CPU time
// they consume, and when any runnable entity's credit falls below the
// reset threshold, the whole pool receives a new allocation epoch.
// Because credits change between pause/resume cycles, the sorted
// position of a sandbox's vCPUs changes too — which is precisely why
// the vanilla resume must re-merge them and why HORSE maintains
// merge_vcpus continuously while paused.
package credit2

import (
	"errors"
	"fmt"

	"github.com/horse-faas/horse/internal/simtime"
)

// Credit is a credit balance. Like credit2, one unit corresponds to one
// nanosecond of CPU time for an entity of default weight, the only
// weight this ledger models.
type Credit = int64

// Accounting constants, mirroring credit2's defaults.
const (
	// CreditInit is the allocation granted at each epoch
	// (CSCHED2_CREDIT_INIT, 10.5 ms).
	CreditInit Credit = 10_500_000
	// CreditMin is the threshold below which an entity triggers a new
	// allocation epoch for the whole pool.
	CreditMin Credit = -500_000
)

// ErrUnknownEntity reports a Burn for an entity never registered.
var ErrUnknownEntity = errors.New("credit2: unknown entity")

type account struct {
	credit Credit
}

// Ledger tracks the credit of a pool of schedulable entities sharing an
// allocation epoch (one ledger per run-queue domain in credit2 terms).
//
// Ledger is not safe for concurrent use; the hypervisor serializes
// scheduling accounting under its locks.
type Ledger struct {
	accounts map[string]*account
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{accounts: make(map[string]*account)}
}

// Register adds an entity and grants it the initial allocation.
func (l *Ledger) Register(id string) error {
	if _, ok := l.accounts[id]; ok {
		return fmt.Errorf("credit2: entity %q already registered", id)
	}
	l.accounts[id] = &account{credit: CreditInit}
	return nil
}

// Unregister removes an entity.
func (l *Ledger) Unregister(id string) {
	delete(l.accounts, id)
}

// Len returns the number of registered entities.
func (l *Ledger) Len() int { return len(l.accounts) }

// Burn charges an entity for ran CPU time, one credit per nanosecond.
// If the entity's credit drops below CreditMin, a new allocation epoch
// begins: every entity gains CreditInit, and balances are clipped so an
// entity cannot hoard more than CreditInit (credit2's anti-starvation
// clip). It returns the entity's post-burn credit.
func (l *Ledger) Burn(id string, ran simtime.Duration) (Credit, error) {
	a, ok := l.accounts[id]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownEntity, id)
	}
	if ran < 0 {
		return 0, fmt.Errorf("credit2: negative runtime %v", ran)
	}
	a.credit -= int64(ran)
	if a.credit < CreditMin {
		l.reset()
	}
	return a.credit, nil
}

// reset starts a new allocation epoch.
func (l *Ledger) reset() {
	for _, a := range l.accounts {
		a.credit += CreditInit
		if a.credit > CreditInit {
			a.credit = CreditInit
		}
	}
}
