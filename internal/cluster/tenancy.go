package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/tenant"
)

// Tenancy errors.
var (
	// ErrAdmissionRejected marks a trigger refused at the tenant
	// admission gate — rate limit or uLL fair share — before any routing
	// decision. Distinct from ErrNoNodes: the cluster had capacity, the
	// tenant had no budget.
	ErrAdmissionRejected = errors.New("cluster: tenant admission rejected")
	// ErrUnknownTenant reports a tenant name that is not in the
	// cluster's tenant contract.
	ErrUnknownTenant = errors.New("cluster: unknown tenant")
)

// Rejection reasons, used as the report's rejection breakdown.
const (
	// RejectReasonNoNodes is a trigger that found no eligible node:
	// every node draining, failed, or excluded by failover.
	RejectReasonNoNodes = "no-nodes"
	// RejectReasonAdmission is a trigger refused at the tenant admission
	// gate before routing.
	RejectReasonAdmission = "admission"
)

// admissionErrors holds one tenant's admission rejects, indexed by the
// verdict that fired.
type admissionErrors [tenant.RejectedShare + 1]error

// newAdmissionErrors renders a tenant's admission rejects once, when
// the function is bound, so a rejected arrival reuses its error rather
// than formatting one. The tenant name and the gate that fired are both
// in the message so a trace or report error string attributes the
// reject without cross-referencing counters.
func newAdmissionErrors(tenantName string) admissionErrors {
	var errs admissionErrors
	for v := tenant.RejectedRate; v <= tenant.RejectedShare; v++ {
		errs[v] = fmt.Errorf("%w: tenant %q over its %s budget", ErrAdmissionRejected, tenantName, v.Reason())
	}
	return errs
}

// Tenants returns the cluster's tenant admission controller (nil when
// the cluster was built without a tenant contract).
func (c *Cluster) Tenants() *tenant.Controller { return c.tenants }

// BindTenant attributes a registered function to a tenant: its triggers
// are admission-gated against the tenant's rate and uLL-share budgets,
// and its pools count against the tenant's slot entitlement and memory
// quota. Binding the same function to the same tenant again is a no-op;
// rebinding to a different tenant is an error (attribution must be
// stable within a run). An empty tenant name is a no-op: the function
// stays untenanted and is never gated. Bind before provisioning: the
// contract gates admission immediately but clamps pools only from the
// next ScaleCluster — it never retroactively shrinks holdings.
//
//horselint:coordinator
func (c *Cluster) BindTenant(name, tenantName string) error {
	entry, ok := c.deployments[name]
	if !ok {
		return fmt.Errorf("%w: %q", faas.ErrUnknownFunction, name)
	}
	if tenantName == "" {
		return nil
	}
	if c.tenants == nil {
		return fmt.Errorf("%w: %q (no tenant contract configured)", ErrUnknownTenant, tenantName)
	}
	idx, ok := c.tenants.Lookup(tenantName)
	if !ok {
		return fmt.Errorf("%w: %q (known: %s)", ErrUnknownTenant, tenantName, strings.Join(c.tenants.Names(), ", "))
	}
	if entry.tenant >= 0 && entry.tenant != idx {
		return fmt.Errorf("cluster: %q is already bound to tenant %q, cannot rebind to %q", name, entry.tenantName, tenantName)
	}
	entry.tenant = idx
	entry.tenantName = tenantName
	entry.rejects = newAdmissionErrors(tenantName)
	return nil
}

// clusterULLSlots sums the Up nodes' reserved uLL slots — the live
// capacity the tenant entitlements share. Failed and draining nodes
// drop out, shrinking the borrowable pool (entitlements themselves stay
// as apportioned at construction; scaleTargets caps what can actually
// be placed).
func (c *Cluster) clusterULLSlots() int {
	total := 0
	for _, n := range c.nodes {
		if n.health != Up {
			continue
		}
		total += n.spec.ULLSlots
	}
	return total
}

// tenantHorseHeld returns the HORSE pool entries a tenant's functions
// hold across the healthy nodes, computed live from the pools (the same
// anti-drift idiom as Node.committedMB).
func (c *Cluster) tenantHorseHeld(idx int) int {
	held := 0
	for name, entry := range c.deployments {
		if entry.tenant != idx {
			continue
		}
		held += c.poolTotal(name, core.Horse)
	}
	return held
}

// horseHeldTotal returns every deployment's HORSE pool entries across
// the healthy nodes, tenanted or not.
func (c *Cluster) horseHeldTotal() int {
	held := 0
	for name := range c.deployments {
		held += c.poolTotal(name, core.Horse)
	}
	return held
}

// tenantCommittedMB returns the sandbox memory a tenant's functions
// hold across the healthy nodes' pools (all policies).
func (c *Cluster) tenantCommittedMB(idx int) int {
	total := 0
	for name, entry := range c.deployments {
		if entry.tenant != idx {
			continue
		}
		for _, n := range c.nodes {
			if n.health != Up {
				continue
			}
			if stats, err := n.platform.PoolStats(name); err == nil {
				total += stats.CommittedMB
			}
		}
	}
	return total
}

// tenantFunctions returns the function names bound to a tenant, sorted,
// so every walk over a tenant's holdings is deterministic.
func (c *Cluster) tenantFunctions(idx int) []string {
	var names []string
	for name, entry := range c.deployments {
		if entry.tenant == idx {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// clampTenantScale bounds a tenanted deployment's pool request by the
// tenant contract before placement. For HORSE pools this enforces the
// weighted-fair slot split with borrow-and-reclaim semantics:
//
//   - Growth within the tenant's entitlement is guaranteed — if the
//     free uLL capacity is short, borrowed (over-entitlement) holdings
//     of other tenants are reclaimed to make room.
//   - Growth beyond the entitlement (borrowing) is granted only from
//     genuinely free capacity: it never evicts another tenant's pools,
//     so an idle share is reclaimable but an active one is
//     preemption-protected.
//
// Every policy's placement is additionally capped by the tenant's
// memory quota (MemoryMB 0 = unlimited). Returns the clamped target.
//
//horselint:coordinator
func (c *Cluster) clampTenantScale(idx int, name string, total int, policy core.Policy) int {
	entry := c.deployments[name]
	spec := c.tenants.Spec(idx)
	// Memory quota: what the tenant's other pools commit stays; entries
	// this rescale replaces come back as budget (mirroring scaleTargets'
	// free-memory accounting).
	if spec.MemoryMB > 0 && entry.spec.MemoryMB > 0 {
		otherMB := c.tenantCommittedMB(idx) - c.poolTotal(name, policy)*entry.spec.MemoryMB
		byQuota := (spec.MemoryMB - otherMB) / entry.spec.MemoryMB
		if byQuota < 0 {
			byQuota = 0
		}
		if total > byQuota {
			total = byQuota
		}
	}
	if policy != core.Horse {
		return total
	}
	cur := c.poolTotal(name, core.Horse)
	delta := total - cur
	if delta <= 0 {
		// Shrinking a tenant's own holdings is always allowed.
		return total
	}
	entGrowth := c.tenants.Entitlement(idx) - c.tenantHorseHeld(idx)
	if entGrowth < 0 {
		entGrowth = 0
	}
	if entGrowth > delta {
		entGrowth = delta
	}
	free := c.clusterULLSlots() - c.horseHeldTotal()
	if free < 0 {
		free = 0
	}
	if entGrowth > free {
		// The guaranteed part of the request is blocked by borrowers:
		// reclaim their over-entitlement holdings, most-borrowed first.
		c.reclaimBorrowedSlots(idx, entGrowth-free)
		free = c.clusterULLSlots() - c.horseHeldTotal()
		if free < 0 {
			free = 0
		}
	}
	grant := entGrowth
	if grant > free {
		grant = free
	}
	if borrow := delta - entGrowth; borrow > 0 {
		// The over-entitlement part only takes what is genuinely free.
		if spare := free - grant; borrow > spare {
			borrow = spare
		}
		grant += borrow
	}
	return cur + grant
}

// reclaimBorrowedSlots frees up to need HORSE slots by shrinking other
// tenants' holdings above their entitlements. Victims are walked most
// borrowed first (ties by tenant name), their functions in sorted name
// order, so reclamation is deterministic. Holdings at or below the
// entitlement are never touched — that is the preemption protection.
// Untenanted HORSE pools are outside the contract and are never
// reclaimed either.
//
//horselint:coordinator
func (c *Cluster) reclaimBorrowedSlots(requester, need int) {
	type victim struct {
		idx      int
		name     string
		borrowed int
	}
	var victims []victim
	for i := 0; i < c.tenants.Len(); i++ {
		if i == requester {
			continue
		}
		borrowed := c.tenantHorseHeld(i) - c.tenants.Entitlement(i)
		if borrowed > 0 {
			victims = append(victims, victim{idx: i, name: c.tenants.Spec(i).Name, borrowed: borrowed})
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].borrowed != victims[j].borrowed {
			return victims[i].borrowed > victims[j].borrowed
		}
		return victims[i].name < victims[j].name
	})
	for _, v := range victims {
		if need <= 0 {
			return
		}
		take := v.borrowed
		if take > need {
			take = need
		}
		for _, fn := range c.tenantFunctions(v.idx) {
			if take <= 0 {
				break
			}
			held := c.poolTotal(fn, core.Horse)
			if held == 0 {
				continue
			}
			cut := take
			if cut > held {
				cut = held
			}
			// The shrink bypasses the clamp on purpose: it reduces the
			// victim's own holdings, which is always contract-legal.
			if _, err := c.applyScale(fn, held-cut, core.Horse); err != nil {
				// A failed shrink leaves the victim's holdings as they
				// are; the requester's grant is simply smaller.
				continue
			}
			take -= cut
			need -= cut
		}
	}
}

// publishTenantOccupancy refreshes the per-tenant uLL slot occupancy
// gauges from the live pools. Called after every pool-mutating cluster
// operation; cheap (coordinator-only, pool stats reads).
//
//horselint:coordinator
func (c *Cluster) publishTenantOccupancy() {
	if c.tenants == nil {
		return
	}
	for i := 0; i < c.tenants.Len(); i++ {
		c.tenants.SetOccupancy(i, c.tenantHorseHeld(i))
	}
}
