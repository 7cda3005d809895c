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

// ErrUnknownEntity reports a Burn of an account that is not registered
// in the ledger: unregistered, or registered in another ledger.
var ErrUnknownEntity = errors.New("credit2: unknown entity")

// Account is one registered entity's balance. Register returns it as the
// entity's handle, so a caller that burns often (the hypervisor, once
// per vCPU per pause) charges it directly instead of by name.
type Account struct {
	id     string
	credit Credit
	// ledger is the ledger the account is registered in, nil once
	// unregistered.
	ledger *Ledger
}

// Ledger tracks the credit of a pool of schedulable entities sharing an
// allocation epoch (one ledger per run-queue domain in credit2 terms).
//
// Ledger is not safe for concurrent use; the hypervisor serializes
// scheduling accounting under its locks.
type Ledger struct {
	accounts map[string]*Account
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{accounts: make(map[string]*Account)}
}

// Register adds an entity, grants it the initial allocation and returns
// its account handle.
func (l *Ledger) Register(id string) (*Account, error) {
	if _, ok := l.accounts[id]; ok {
		return nil, fmt.Errorf("credit2: entity %q already registered", id)
	}
	a := &Account{id: id, credit: CreditInit, ledger: l}
	l.accounts[id] = a
	return a, nil
}

// Unregister removes the entity a is the handle of; a burns no more.
func (l *Ledger) Unregister(a *Account) {
	if a == nil || a.ledger != l {
		return
	}
	delete(l.accounts, a.id)
	a.ledger = nil
}

// Len returns the number of registered entities.
func (l *Ledger) Len() int { return len(l.accounts) }

// Burn charges an entity for ran CPU time, one credit per nanosecond.
// If the entity's credit drops below CreditMin, a new allocation epoch
// begins: every entity gains CreditInit, and balances are clipped so an
// entity cannot hoard more than CreditInit (credit2's anti-starvation
// clip). It returns the entity's post-burn credit.
func (l *Ledger) Burn(a *Account, ran simtime.Duration) (Credit, error) {
	if a == nil {
		return 0, ErrUnknownEntity
	}
	if a.ledger != l {
		return 0, fmt.Errorf("%w: %q", ErrUnknownEntity, a.id)
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

// reset starts a new allocation epoch. Each account's new balance
// depends only on its own, so the walk's order does not matter.
func (l *Ledger) reset() {
	for _, a := range l.accounts {
		a.credit += CreditInit
		if a.credit > CreditInit {
			a.credit = CreditInit
		}
	}
}
