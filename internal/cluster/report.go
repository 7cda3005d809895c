package cluster

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"

	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/metrics"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/trigtrace"
)

// Report is the outcome of one cluster run. Every field is a value or a
// sorted slice — no maps — so the JSON and CSV renderings are
// byte-identical for identical runs.
type Report struct {
	// Policy, Seed, and Nodes echo the cluster configuration.
	Policy string `json:"policy"`
	Seed   int64  `json:"seed"`
	Nodes  int    `json:"nodes"`
	// Horizon is the virtual span the arrival stream covered.
	Horizon simtime.Duration `json:"horizon_ns"`
	// Arrivals counts generated triggers; Served the ones that
	// completed; Rejected the ones that found no eligible node; Failed
	// the ones whose invocation died on-node (not retried elsewhere).
	Arrivals uint64 `json:"arrivals"`
	Served   uint64 `json:"served"`
	Rejected uint64 `json:"rejected"`
	Failed   uint64 `json:"failed"`
	// RejectionReasons breaks Rejected down: "no-nodes" (no eligible
	// node) vs "admission" (refused at the tenant admission gate).
	RejectionReasons []ReasonCount `json:"rejection_reasons"`
	// Failovers counts voided routing decisions, broken down by reason.
	Failovers       uint64        `json:"failovers"`
	FailoverReasons []ReasonCount `json:"failover_reasons"`
	// Modes and NodeSummaries give the latency distributions per served
	// start mode and per node.
	Modes         []ModeLatency `json:"modes"`
	NodeSummaries []NodeSummary `json:"node_summaries"`
	// SLOs is the per-function SLO attainment; ULLAttainment is the
	// aggregate over the uLL functions (1 when none saw traffic).
	SLOs          []SLOSummary `json:"slos"`
	ULLAttainment float64      `json:"ull_attainment"`
	// Tenants and TenantModes are the per-tenant accounting (DESIGN.md
	// §14): one summary per tenant in name order, and the per-tenant
	// per-served-mode latency distributions. Empty without a tenant
	// contract.
	Tenants     []TenantSummary     `json:"tenants,omitempty"`
	TenantModes []TenantModeLatency `json:"tenant_modes,omitempty"`
	// Attribution is the tail-latency attribution table: the per-stage
	// latency distribution under each served start mode, from the
	// trigger-trace layer (DESIGN.md §12). Per mode, the serving-class
	// stage totals sum exactly to that mode's summed latency. Empty when
	// tracing was off.
	Attribution []trigtrace.StageLatency `json:"attribution,omitempty"`
	// TraceViolations and TraceReconcileFailures echo the trace
	// recorder: SLO-violating traces retained for the flight recorder,
	// and traces whose stage sums failed to reconcile with their latency
	// (always 0 absent an instrumentation bug).
	TraceViolations        uint64 `json:"trace_violations"`
	TraceReconcileFailures uint64 `json:"trace_reconcile_failures"`
}

// ReasonCount is one failover reason's tally.
type ReasonCount struct {
	Reason string `json:"reason"`
	Count  uint64 `json:"count"`
}

// ModeLatency is the arrival-to-completion latency distribution of one
// served start mode.
type ModeLatency struct {
	Mode  string           `json:"mode"`
	Count uint64           `json:"count"`
	P50   simtime.Duration `json:"p50_ns"`
	P95   simtime.Duration `json:"p95_ns"`
	P99   simtime.Duration `json:"p99_ns"`
	Max   simtime.Duration `json:"max_ns"`
}

// NodeSummary is one node's end-of-run state and serving profile.
type NodeSummary struct {
	Node       string           `json:"node"`
	Health     string           `json:"health"`
	Placements uint64           `json:"placements"`
	Served     uint64           `json:"served"`
	Lag        simtime.Duration `json:"lag_ns"`
	P50        simtime.Duration `json:"p50_ns"`
	P99        simtime.Duration `json:"p99_ns"`
}

// TenantSummary is one tenant's end-of-run accounting: what the
// contract granted it (weight, slot entitlement), what it holds
// (SlotsHeld, live from the pools; TokensAvailable, the rate bucket's
// end-of-run level — always 0 for tenants without a rate limit, whose
// bucket is never armed), and what its traffic saw. Rejections are
// split the same way as the cluster's: AdmissionRejected at the tenant
// gate, Rejected for no eligible node.
type TenantSummary struct {
	Tenant            string  `json:"tenant"`
	Weight            int     `json:"weight"`
	Entitlement       int     `json:"entitlement"`
	SlotsHeld         int     `json:"slots_held"`
	Arrivals          uint64  `json:"arrivals"`
	Served            uint64  `json:"served"`
	AdmissionRejected uint64  `json:"admission_rejected"`
	Rejected          uint64  `json:"rejected"`
	Failed            uint64  `json:"failed"`
	Missed            uint64  `json:"missed"`
	Attainment        float64 `json:"attainment"`
	ULLAttainment     float64 `json:"ull_attainment"`
	TokensAvailable   float64 `json:"tokens_available"`
}

// TenantModeLatency is one tenant's arrival-to-completion latency
// distribution under one served start mode.
type TenantModeLatency struct {
	Tenant string           `json:"tenant"`
	Mode   string           `json:"mode"`
	Count  uint64           `json:"count"`
	P50    simtime.Duration `json:"p50_ns"`
	P95    simtime.Duration `json:"p95_ns"`
	P99    simtime.Duration `json:"p99_ns"`
	Max    simtime.Duration `json:"max_ns"`
}

// SLOSummary is one function's attainment against its virtual-time
// latency budget. Rejected and failed arrivals count as misses: an SLO
// is about what the caller observed, not about the happy path.
type SLOSummary struct {
	Function   string           `json:"function"`
	ULL        bool             `json:"ull"`
	Budget     simtime.Duration `json:"budget_ns"`
	Arrivals   uint64           `json:"arrivals"`
	Missed     uint64           `json:"missed"`
	Attainment float64          `json:"attainment"`
}

// attainment renders a ratio with a fixed denominator-zero convention
// (vacuously attained) so reports never contain NaN.
func attainment(missed, total uint64) float64 {
	if total == 0 {
		return 1
	}
	return float64(total-missed) / float64(total)
}

// formatRatio renders attainment values with fixed precision so the CSV
// is byte-stable.
func formatRatio(f float64) string {
	return strconv.FormatFloat(f, 'f', 6, 64)
}

// WriteCSV renders the report as sectioned CSV: a summary row, then
// mode, node, failover, and SLO tables, each with its own header line.
func (r Report) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "policy,seed,nodes,horizon_ns,arrivals,served,rejected,failed,failovers,ull_attainment\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%s\n",
		r.Policy, r.Seed, r.Nodes, int64(r.Horizon), r.Arrivals, r.Served, r.Rejected, r.Failed, r.Failovers, formatRatio(r.ULLAttainment)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\nmode,count,p50_ns,p95_ns,p99_ns,max_ns\n"); err != nil {
		return err
	}
	for _, m := range r.Modes {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", m.Mode, m.Count, int64(m.P50), int64(m.P95), int64(m.P99), int64(m.Max)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\nnode,health,placements,served,lag_ns,p50_ns,p99_ns\n"); err != nil {
		return err
	}
	for _, n := range r.NodeSummaries {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%d\n", n.Node, n.Health, n.Placements, n.Served, int64(n.Lag), int64(n.P50), int64(n.P99)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\nrejection_reason,count\n"); err != nil {
		return err
	}
	for _, rr := range r.RejectionReasons {
		if _, err := fmt.Fprintf(w, "%s,%d\n", rr.Reason, rr.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\nfailover_reason,count\n"); err != nil {
		return err
	}
	for _, fr := range r.FailoverReasons {
		if _, err := fmt.Fprintf(w, "%s,%d\n", fr.Reason, fr.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\nfunction,ull,budget_ns,arrivals,missed,attainment\n"); err != nil {
		return err
	}
	for _, s := range r.SLOs {
		if _, err := fmt.Fprintf(w, "%s,%t,%d,%d,%d,%s\n", s.Function, s.ULL, int64(s.Budget), s.Arrivals, s.Missed, formatRatio(s.Attainment)); err != nil {
			return err
		}
	}
	if len(r.Tenants) > 0 {
		if _, err := fmt.Fprintf(w, "\ntenant,weight,entitlement,slots_held,arrivals,served,admission_rejected,rejected,failed,missed,attainment,ull_attainment,tokens_available\n"); err != nil {
			return err
		}
		for _, t := range r.Tenants {
			if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%s,%s\n",
				t.Tenant, t.Weight, t.Entitlement, t.SlotsHeld, t.Arrivals, t.Served,
				t.AdmissionRejected, t.Rejected, t.Failed, t.Missed,
				formatRatio(t.Attainment), formatRatio(t.ULLAttainment), formatRatio(t.TokensAvailable)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "\ntenant_mode_tenant,mode,count,p50_ns,p95_ns,p99_ns,max_ns\n"); err != nil {
			return err
		}
		for _, tm := range r.TenantModes {
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%d\n",
				tm.Tenant, tm.Mode, tm.Count, int64(tm.P50), int64(tm.P95), int64(tm.P99), int64(tm.Max)); err != nil {
				return err
			}
		}
	}
	if len(r.Attribution) > 0 {
		if _, err := fmt.Fprintf(w, "\nattribution_mode,stage,class,count,total_ns,p50_ns,p99_ns,max_ns\n"); err != nil {
			return err
		}
		for _, a := range r.Attribution {
			if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%d,%d,%d,%d\n",
				a.Mode, a.Stage, a.Class, a.Count, int64(a.Total), int64(a.P50), int64(a.P99), int64(a.Max)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON renders the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// reportBuilder accumulates per-arrival outcomes during a run. Every
// tally is dense: latency series by served start mode (byMode), node
// index (byNode), and tenant index then mode (byTenantMode); function
// tallies by deployment-entry index (byFn); rejections by outcome. A
// mode series is created on its first record, and build emits only
// what was recorded, in name order.
type reportBuilder struct {
	cluster *Cluster
	horizon simtime.Duration

	arrivals uint64
	served   uint64
	rejected uint64
	failed   uint64

	byMode     []*metrics.Series
	byNode     []*metrics.Series
	byFn       []fnOutcome
	rejReasons [len(rejectReasons)]uint64

	// byTenant is indexed by the controller's tenant index (nil without
	// a tenant contract); byTenantMode[tenant][mode] is one tenant's
	// one-mode latency series.
	byTenant     []tenantOutcome
	byTenantMode [][]*metrics.Series
}

type fnOutcome struct {
	arrivals uint64
	missed   uint64
}

type tenantOutcome struct {
	arrivals          uint64
	served            uint64
	admissionRejected uint64
	rejected          uint64
	failed            uint64
	missed            uint64
	ullArrivals       uint64
	ullMissed         uint64
}

func newReportBuilder(c *Cluster, horizon simtime.Duration) *reportBuilder {
	b := &reportBuilder{
		cluster: c,
		horizon: horizon,
		byNode:  make([]*metrics.Series, len(c.nodes)),
		byFn:    make([]fnOutcome, len(c.entries)),
	}
	for i := range b.byNode {
		b.byNode[i] = metrics.NewSeries()
	}
	if c.tenants != nil {
		b.byTenant = make([]tenantOutcome, c.tenants.Len())
		b.byTenantMode = make([][]*metrics.Series, c.tenants.Len())
	}
	return b
}

// record folds one terminal job into the report, in the column its
// outcome names. Mode latencies are grouped by the mode that actually
// served (after fallback), because that is the distribution the
// paper's figures compare; a job that was not served records no mode
// and no node. Folding runs on the coordinator during finalize, in
// arrival order, which is what keeps the report byte-identical at
// every shard count.
//
//horselint:coordinator
func (b *reportBuilder) record(job *pendingJob) {
	entry := job.entry
	b.arrivals++
	out := &b.byFn[entry.index]
	out.arrivals++
	var to *tenantOutcome
	if b.byTenant != nil && entry.tenant >= 0 {
		to = &b.byTenant[entry.tenant]
		to.arrivals++
		if entry.ull {
			to.ullArrivals++
		}
	}
	missed := true
	switch job.outcome {
	case outServed:
		b.served++
		missed = job.latency > entry.slo
		mode := int(job.inv.Mode)
		seriesAt(&b.byMode, mode).Record(job.latency)
		b.byNode[job.node.index].Record(job.latency)
		if to != nil {
			to.served++
			seriesAt(&b.byTenantMode[entry.tenant], mode).Record(job.latency)
		}
	case outAdmission, outNoNodes:
		b.rejected++
		b.rejReasons[job.outcome-outAdmission]++
		if to != nil {
			if job.outcome == outAdmission {
				to.admissionRejected++
			} else {
				to.rejected++
			}
		}
	default:
		b.failed++
		if to != nil {
			to.failed++
		}
	}
	if missed {
		out.missed++
		if to != nil {
			to.missed++
			if entry.ull {
				to.ullMissed++
			}
		}
	}
}

// seriesAt returns (*s)[i], growing *s and creating the series on first
// use.
func seriesAt(s *[]*metrics.Series, i int) *metrics.Series {
	if i >= len(*s) {
		*s = append(*s, make([]*metrics.Series, i+1-len(*s))...)
	}
	if (*s)[i] == nil {
		(*s)[i] = metrics.NewSeries()
	}
	return (*s)[i]
}

// modesByName returns the start modes with a series in byMode, ordered
// by mode name.
func modesByName(byMode []*metrics.Series) []faas.StartMode {
	var modes []faas.StartMode
	for i, s := range byMode {
		if s != nil {
			modes = append(modes, faas.StartMode(i))
		}
	}
	slices.SortFunc(modes, func(a, b faas.StartMode) int { return cmp.Compare(a.String(), b.String()) })
	return modes
}

// build assembles the final Report. Every row set is emitted in name
// order, so identical runs serialize identically.
//
//horselint:coordinator
func (b *reportBuilder) build() Report {
	c := b.cluster
	r := Report{
		Policy:   c.router.Policy(),
		Seed:     c.seed,
		Nodes:    len(c.nodes),
		Horizon:  b.horizon,
		Arrivals: b.arrivals,
		Served:   b.served,
		Rejected: b.rejected,
		Failed:   b.failed,
	}
	for i, count := range b.rejReasons {
		if count > 0 {
			r.RejectionReasons = append(r.RejectionReasons, ReasonCount{Reason: rejectReasons[i], Count: count})
		}
	}
	for _, reason := range sortedKeys(c.failovers) {
		r.Failovers += c.failovers[reason]
		r.FailoverReasons = append(r.FailoverReasons, ReasonCount{Reason: reason, Count: c.failovers[reason]})
	}
	for _, mode := range modesByName(b.byMode) {
		s := b.byMode[mode]
		r.Modes = append(r.Modes, ModeLatency{
			Mode:  mode.String(),
			Count: uint64(s.Len()),
			P50:   s.RankQuantile(0.50),
			P95:   s.RankQuantile(0.95),
			P99:   s.RankQuantile(0.99),
			Max:   s.RankQuantile(1),
		})
	}
	now := c.clock.Now()
	for _, n := range c.nodes {
		s := b.byNode[n.index]
		r.NodeSummaries = append(r.NodeSummaries, NodeSummary{
			Node:       n.id,
			Health:     n.health.String(),
			Placements: n.placements,
			Served:     n.served,
			Lag:        n.Lag(now),
			P50:        s.RankQuantile(0.50),
			P99:        s.RankQuantile(0.99),
		})
	}
	var recorded []*deploymentEntry
	for i, out := range b.byFn {
		if out.arrivals > 0 {
			recorded = append(recorded, c.entries[i])
		}
	}
	slices.SortFunc(recorded, func(x, y *deploymentEntry) int { return cmp.Compare(x.name, y.name) })
	var ullArrivals, ullMissed uint64
	for _, entry := range recorded {
		out := b.byFn[entry.index]
		r.SLOs = append(r.SLOs, SLOSummary{
			Function:   entry.name,
			ULL:        entry.ull,
			Budget:     entry.slo,
			Arrivals:   out.arrivals,
			Missed:     out.missed,
			Attainment: attainment(out.missed, out.arrivals),
		})
		if entry.ull {
			ullArrivals += out.arrivals
			ullMissed += out.missed
		}
	}
	r.ULLAttainment = attainment(ullMissed, ullArrivals)
	if c.tenants != nil {
		// Tenant indexes are name-sorted by construction, so walking
		// them in order yields a deterministic name-ordered section.
		for i := 0; i < c.tenants.Len(); i++ {
			spec := c.tenants.Spec(i)
			out := b.byTenant[i]
			r.Tenants = append(r.Tenants, TenantSummary{
				Tenant:            spec.Name,
				Weight:            spec.Weight,
				Entitlement:       c.tenants.Entitlement(i),
				SlotsHeld:         c.tenantHorseHeld(i),
				Arrivals:          out.arrivals,
				Served:            out.served,
				AdmissionRejected: out.admissionRejected,
				Rejected:          out.rejected,
				Failed:            out.failed,
				Missed:            out.missed,
				Attainment:        attainment(out.missed, out.arrivals),
				ULLAttainment:     attainment(out.ullMissed, out.ullArrivals),
				TokensAvailable:   c.tenants.TokensAvailable(i),
			})
		}
		for i, byMode := range b.byTenantMode {
			for _, mode := range modesByName(byMode) {
				s := byMode[mode]
				r.TenantModes = append(r.TenantModes, TenantModeLatency{
					Tenant: c.tenants.Spec(i).Name,
					Mode:   mode.String(),
					Count:  uint64(s.Len()),
					P50:    s.RankQuantile(0.50),
					P95:    s.RankQuantile(0.95),
					P99:    s.RankQuantile(0.99),
					Max:    s.RankQuantile(1),
				})
			}
		}
	}
	r.Attribution = c.claim.Attribution()
	r.TraceViolations = c.claim.Violations()
	r.TraceReconcileFailures = c.claim.ReconcileFailures()
	return r
}
