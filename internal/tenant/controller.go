package tenant

import (
	"fmt"
	"sort"

	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
)

// Verdict is one admission decision.
type Verdict uint8

// The admission verdicts.
const (
	// Admitted lets the arrival through to routing.
	Admitted Verdict = iota
	// RejectedRate is a trigger over its tenant's rate-bucket limit.
	RejectedRate
	// RejectedShare is a uLL trigger that found neither its tenant's
	// deficit nor the shared spill bucket funded — the fair-share gate.
	RejectedShare
)

// Reason returns the verdict's rejection-reason label ("" when
// admitted), used for tenant_rejected_total{reason} and the report.
func (v Verdict) Reason() string {
	switch v {
	case RejectedRate:
		return "rate"
	case RejectedShare:
		return "ull-share"
	default:
		return ""
	}
}

// Options configures a Controller beyond its tenant specs.
type Options struct {
	// Slots is the cluster's total reserved uLL-slot capacity the
	// tenants' slot entitlements are computed over.
	Slots int
	// ULLRate arms the deficit-round-robin fair-share gate: the
	// aggregate uLL admission bandwidth, in triggers per virtual second,
	// divided between the tenants by weight. 0 disables the gate (the
	// per-tenant rate buckets still apply).
	ULLRate float64
	// Metrics, when non-nil, receives the tenant_* instruments.
	Metrics *telemetry.Registry
}

// state is one tenant's admission bookkeeping. All of it is
// coordinator-owned through Controller.states: admission runs strictly
// between the run loop's serve barriers, in arrival order.
type state struct {
	// Rate bucket: tokens refill lazily at spec.Rate from the elapsed
	// virtual time since last, capped at spec.Burst.
	tokens float64
	last   simtime.Time

	// DRR fair-share gate: deficit refills at the tenant's weighted
	// share of the aggregate uLL rate, capped at quantum; overflow past
	// the cap spills into the controller's shared bucket.
	deficit float64
	quantum float64
	rate    float64 // weighted uLL refill rate, tokens per virtual second

	// Run tallies, reset by ResetCounters.
	admitted      uint64
	rejectedRate  uint64
	rejectedShare uint64
	borrowed      uint64

	// Prebound instruments (nil registry ⇒ nil handles, inert): the
	// admission path must not pay the registry's name-format +
	// map-lookup cost.
	admittedC  *telemetry.Counter
	rejRateC   *telemetry.Counter
	rejShareC  *telemetry.Counter
	tokensG    *telemetry.Gauge
	occupancyG *telemetry.Gauge
}

// Controller is the deterministic admission controller for a fixed set
// of tenants. It owns no locks on purpose: every method that mutates
// state is coordinator-phase under the cluster's shard-ownership
// contract (DESIGN.md §13), so admission decisions happen in arrival
// order and the admit/reject sequence is identical at every shard
// count.
//
// A nil *Controller is valid and admits everything.
type Controller struct {
	specs   []Spec
	index   map[string]int
	entitle []int

	ullRate float64

	states     []state      //horselint:coordinator
	spill      float64      //horselint:coordinator
	spillCap   float64      //horselint:coordinator
	lastRefill simtime.Time //horselint:coordinator
}

// New builds a controller from the tenant specs (defaults applied,
// sorted by name so construction order never affects entitlements or
// admission arithmetic). Construction happens before any run phase;
// the annotation records that the controller's state is born
// coordinator-owned.
//
//horselint:coordinator
func New(specs []Spec, opts Options) (*Controller, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("%w: empty tenant list", ErrBadSpec)
	}
	ss := make([]Spec, len(specs))
	for i, s := range specs {
		s = s.withDefaults()
		if err := s.validate(); err != nil {
			return nil, err
		}
		ss[i] = s
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].Name < ss[j].Name })
	index := make(map[string]int, len(ss))
	for i, s := range ss {
		if _, dup := index[s.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate tenant %q", ErrBadSpec, s.Name)
		}
		index[s.Name] = i
	}
	if opts.Slots < 0 {
		return nil, fmt.Errorf("%w: negative slot capacity %d", ErrBadSpec, opts.Slots)
	}
	if opts.ULLRate != 0 && (!(opts.ULLRate >= minRate) || !(opts.ULLRate <= maxRate)) {
		return nil, fmt.Errorf("%w: uLL admission rate %g must be in [%g, %g]", ErrBadSpec, opts.ULLRate, minRate, maxRate)
	}
	c := &Controller{
		specs:   ss,
		index:   index,
		entitle: entitlements(ss, opts.Slots),
		ullRate: opts.ULLRate,
		states:  make([]state, len(ss)),
	}
	var totalWeight float64
	for _, s := range ss {
		totalWeight += float64(s.Weight)
	}
	window := float64(DefaultBurstWindow) / float64(simtime.Second)
	for i := range c.states {
		st := &c.states[i]
		spec := ss[i]
		if c.ullRate > 0 {
			st.rate = c.ullRate * float64(spec.Weight) / totalWeight
			st.quantum = st.rate * window
			if st.quantum < 1 {
				st.quantum = 1
			}
		}
		m := opts.Metrics
		st.admittedC = m.Counter("tenant_admitted_total", "tenant", spec.Name)
		st.rejRateC = m.Counter("tenant_rejected_total", "tenant", spec.Name, "reason", "rate")
		st.rejShareC = m.Counter("tenant_rejected_total", "tenant", spec.Name, "reason", "ull-share")
		st.tokensG = m.Gauge("tenant_tokens_available", "tenant", spec.Name)
		st.occupancyG = m.Gauge("tenant_ull_slot_occupancy", "tenant", spec.Name)
	}
	if c.ullRate > 0 {
		c.spillCap = c.ullRate * window
		if c.spillCap < 1 {
			c.spillCap = 1
		}
	}
	c.ResetCounters()
	return c, nil
}

// entitlements divides slots between the tenants proportionally to
// their Slots shares by largest remainder, so entitlements always sum
// to min(slots, what the shares can claim) and are stable under tenant
// ordering (ties break toward the earlier name).
func entitlements(specs []Spec, slots int) []int {
	out := make([]int, len(specs))
	var totalShares int
	for _, s := range specs {
		totalShares += s.Slots
	}
	if totalShares == 0 || slots == 0 {
		return out
	}
	assigned := 0
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(specs))
	for i, s := range specs {
		exact := float64(slots) * float64(s.Slots) / float64(totalShares)
		out[i] = int(exact)
		assigned += out[i]
		rems[i] = rem{idx: i, frac: exact - float64(out[i])}
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].idx < rems[j].idx
	})
	for i := 0; assigned < slots && i < len(rems); i++ {
		if specs[rems[i].idx].Slots == 0 {
			continue
		}
		out[rems[i].idx]++
		assigned++
	}
	return out
}

// ResetCounters returns the controller to its start-of-run state: run
// tallies zeroed, rate buckets and DRR deficits refilled to their caps
// (a run begins with every burst allowance intact), and the refill
// clocks cleared so the first admission re-anchors them at its own
// instant. Cluster.Run calls this from resetRunState so back-to-back
// runs admit identically. Safe on a nil controller.
//
//horselint:coordinator
func (c *Controller) ResetCounters() {
	if c == nil {
		return
	}
	for i := range c.states {
		st := &c.states[i]
		st.tokens = c.specs[i].Burst
		st.last = simtime.Time(0)
		st.deficit = st.quantum
		st.admitted = 0
		st.rejectedRate = 0
		st.rejectedShare = 0
		st.borrowed = 0
		st.tokensG.Set(int64(st.tokens))
	}
	c.spill = c.spillCap
	c.lastRefill = simtime.Time(0)
}

// Len returns the tenant count.
func (c *Controller) Len() int {
	if c == nil {
		return 0
	}
	return len(c.specs)
}

// Names returns the tenant names in sorted order. The caller owns the
// slice.
func (c *Controller) Names() []string {
	if c == nil {
		return nil
	}
	out := make([]string, len(c.specs))
	for i, s := range c.specs {
		out[i] = s.Name
	}
	return out
}

// Lookup resolves a tenant name to its dense index (-1, false when
// unknown). Indexes are stable for the controller's lifetime, so
// callers resolve once at bind time and the admission path stays a
// slice access.
func (c *Controller) Lookup(name string) (int, bool) {
	if c == nil {
		return -1, false
	}
	idx, ok := c.index[name]
	if !ok {
		return -1, false
	}
	return idx, true
}

// Spec returns tenant idx's spec (defaults applied).
func (c *Controller) Spec(idx int) Spec { return c.specs[idx] }

// Entitlement returns tenant idx's uLL-slot entitlement: the reserved
// slots it can always reclaim, and the protection boundary — holdings
// beyond it are borrowed and reclaimable by under-entitled tenants.
func (c *Controller) Entitlement(idx int) int { return c.entitle[idx] }

// Admit runs one arrival through the tenant's admission gates at
// virtual instant now: the rate bucket first, then — for uLL (HORSE
// fast path) arrivals — the weighted fair-share gate over the reserved
// uLL admission bandwidth. idx < 0 (untenanted) always admits. A
// share-rejected arrival keeps its consumed rate token: it did arrive,
// and charging it keeps the bucket sequence identical whether or not
// the fair-share gate is armed.
//
//horselint:hotpath
//horselint:coordinator
func (c *Controller) Admit(idx int, now simtime.Time, ull bool) Verdict {
	if c == nil || idx < 0 {
		return Admitted
	}
	st := &c.states[idx]
	if c.specs[idx].Rate > 0 {
		c.refillRate(idx, now)
		if st.tokens < 1 {
			st.rejectedRate++
			st.rejRateC.Inc()
			return RejectedRate
		}
		st.tokens--
		st.tokensG.Set(int64(st.tokens))
	}
	if ull && c.ullRate > 0 {
		c.refillShares(now)
		if !c.takeShare(idx) {
			st.rejectedShare++
			st.rejShareC.Inc()
			return RejectedShare
		}
	}
	st.admitted++
	st.admittedC.Inc()
	return Admitted
}

// refillRate lazily refills tenant idx's rate bucket from the virtual
// time elapsed since its last refill, capped at the burst depth.
//
//horselint:hotpath
//horselint:coordinator
func (c *Controller) refillRate(idx int, now simtime.Time) {
	st := &c.states[idx]
	if now.After(st.last) {
		dt := float64(now.Sub(st.last)) / float64(simtime.Second)
		st.tokens += c.specs[idx].Rate * dt
		if st.tokens > c.specs[idx].Burst {
			st.tokens = c.specs[idx].Burst
		}
	}
	st.last = now
}

// refillShares advances every tenant's DRR deficit to virtual instant
// now in one pass (tenant counts are small, so the walk is cheap and
// allocation-free). Refill past a tenant's quantum cap spills into the
// shared bucket — that spill is exactly the idle bandwidth busy
// tenants may borrow — and the spill bucket itself is capped so idle
// capacity never accumulates into an unbounded burst allowance.
//
//horselint:hotpath
//horselint:coordinator
func (c *Controller) refillShares(now simtime.Time) {
	if !now.After(c.lastRefill) {
		return
	}
	dt := float64(now.Sub(c.lastRefill)) / float64(simtime.Second)
	c.lastRefill = now
	for i := range c.states {
		st := &c.states[i]
		if st.rate <= 0 {
			continue
		}
		st.deficit += st.rate * dt
		if st.deficit > st.quantum {
			c.spill += st.deficit - st.quantum
			st.deficit = st.quantum
		}
	}
	if c.spill > c.spillCap {
		c.spill = c.spillCap
	}
}

// takeShare is the DRR fair pick: the tenant pays one admission from
// its own deficit first, then borrows from the shared spill bucket.
// Borrowing consumes only capacity other tenants let spill past their
// quantum caps — a busy tenant's own refill stream is never touched,
// which is the preemption-protection half of borrow-with-preemption-
// protection.
//
//horselint:hotpath
//horselint:coordinator
func (c *Controller) takeShare(idx int) bool {
	st := &c.states[idx]
	if st.deficit >= 1 {
		st.deficit--
		return true
	}
	if c.spill >= 1 {
		c.spill--
		st.borrowed++
		return true
	}
	return false
}

// SetOccupancy publishes tenant idx's live uLL-slot occupancy (the
// cluster computes it from the warm pools after every pool operation).
//
//horselint:coordinator
func (c *Controller) SetOccupancy(idx, slots int) {
	if c == nil || idx < 0 {
		return
	}
	c.states[idx].occupancyG.Set(int64(slots))
}

// TokensAvailable returns tenant idx's rate-bucket level as of its last
// refill (the end-of-run report datum).
func (c *Controller) TokensAvailable(idx int) float64 {
	if c == nil || idx < 0 {
		return 0
	}
	return c.states[idx].tokens
}

// Counts returns tenant idx's run tallies: admitted arrivals, rate
// rejects, fair-share rejects, and spill-bucket borrows.
//
//horselint:coordinator
func (c *Controller) Counts(idx int) (admitted, rejectedRate, rejectedShare, borrowed uint64) {
	if c == nil || idx < 0 {
		return 0, 0, 0, 0
	}
	st := &c.states[idx]
	return st.admitted, st.rejectedRate, st.rejectedShare, st.borrowed
}
