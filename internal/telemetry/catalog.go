package telemetry

import "sort"

// InstrumentKind classifies a catalog entry.
type InstrumentKind string

// The three instrument kinds the registry exposes.
const (
	KindCounter   InstrumentKind = "counter"
	KindGauge     InstrumentKind = "gauge"
	KindHistogram InstrumentKind = "histogram"
)

// InstrumentDef documents one instrument family: its name, kind, the
// label keys it may carry, and its Prometheus help text.
//
// This table is the single source of truth for instrument names. Three
// consumers hold it in sync:
//
//   - the metricname horselint analyzer rejects any literal family or
//     label key at a Registry call site that is not listed here;
//   - TestCatalogMatchesDesignDoc asserts the DESIGN.md §8 table equals
//     this one;
//   - WritePrometheus emits each family's # HELP line from Help.
//
// Adding an instrument therefore means adding it here and to the
// DESIGN.md §8 table — the analyzer and the docs test fail until both
// agree.
type InstrumentDef struct {
	Family string
	Kind   InstrumentKind
	Labels []string
	Help   string
}

// catalog lists every instrument family the wired stack emits.
var catalog = []InstrumentDef{
	{"vmm_pauses_total", KindCounter, []string{"policy"}, "Completed sandbox pauses per scheduling policy."},
	{"vmm_resumes_total", KindCounter, []string{"policy"}, "Completed sandbox resumes per scheduling policy."},
	{"vmm_resume_lock_waits_total", KindCounter, nil, "Resume attempts that contended on the global resume lock."},
	{"vmm_pause_ns", KindHistogram, []string{"policy"}, "Virtual-time pause duration in nanoseconds."},
	{"vmm_resume_ns", KindHistogram, []string{"policy"}, "Virtual-time resume duration in nanoseconds."},
	{"horse_splice_ops_total", KindCounter, nil, "P2SM O(1) run-queue splice operations."},
	{"horse_spliced_vcpus_total", KindCounter, nil, "vCPU entities moved by P2SM splices."},
	{"horse_coalesced_updates_total", KindCounter, nil, "Load updates folded into one coalesced write."},
	{"horse_prepared_sandboxes", KindGauge, nil, "Paused sandboxes currently holding prepared fast-path state."},
	{"faas_triggers_total", KindCounter, []string{"mode"}, "Function triggers per sandbox start mode."},
	{"faas_warm_pool_hits_total", KindCounter, nil, "Warm-pool lookups that found a pooled sandbox."},
	{"faas_warm_pool_misses_total", KindCounter, nil, "Warm-pool lookups that found the pool empty."},
	{"faas_warm_pool_size", KindGauge, nil, "Paused sandboxes currently in the warm pool."},
	{"faas_trigger_failures_total", KindCounter, []string{"site"}, "Failed trigger attempts per failure site."},
	{"faas_fallbacks_total", KindCounter, []string{"from", "to"}, "Trigger fallbacks from one start mode to the next in the degradation chain."},
	{"faas_retries_total", KindCounter, nil, "Virtual-time backoff retries of contended resumes in the trigger path."},
	{"cluster_triggers_total", KindCounter, []string{"node", "policy"}, "Cluster triggers served per node under the active placement policy."},
	{"cluster_failovers_total", KindCounter, []string{"reason"}, "Routing decisions voided by node failure, drain, or on-node trigger failure."},
	{"cluster_node_load", KindGauge, []string{"node"}, "Node virtual-time backlog (lag behind the cluster clock) in nanoseconds."},
	{"loadgen_arrivals_total", KindCounter, []string{"function"}, "Open-loop arrivals generated per function."},
	{"trigtrace_traces_total", KindCounter, nil, "Per-trigger traces finished by the recorder."},
	{"trigtrace_slo_violations_total", KindCounter, nil, "Finished traces that erred or exceeded their SLO budget."},
	{"trigtrace_retained_total", KindCounter, []string{"reason"}, "Span trees retained by the flight recorder per retention reason."},
	{"tenant_admitted_total", KindCounter, []string{"tenant"}, "Arrivals admitted past the tenant admission gate per tenant."},
	{"tenant_rejected_total", KindCounter, []string{"tenant", "reason"}, "Arrivals rejected at the tenant admission gate per tenant and gate (rate, ull-share)."},
	{"tenant_tokens_available", KindGauge, []string{"tenant"}, "Rate-limit tokens currently available in the tenant's bucket."},
	{"tenant_ull_slot_occupancy", KindGauge, []string{"tenant"}, "Reserved uLL slots the tenant's HORSE pools currently hold."},
}

// Catalog returns the instrument catalog sorted by family name. The
// caller owns the returned slice.
func Catalog() []InstrumentDef {
	out := make([]InstrumentDef, len(catalog))
	copy(out, catalog)
	sort.Slice(out, func(i, j int) bool { return out[i].Family < out[j].Family })
	return out
}

// catalogIndex is the family-name index the exporters consult per line.
var catalogIndex = func() map[string]InstrumentDef {
	out := make(map[string]InstrumentDef, len(catalog))
	for _, def := range catalog {
		out[def.Family] = def
	}
	return out
}()
