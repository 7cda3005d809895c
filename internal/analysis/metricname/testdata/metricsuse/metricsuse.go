// Package metricsuse exercises the metricname analyzer against a small
// test catalog (see metricname_test.go): vmm_resumes_total is a counter
// with a policy label, vmm_resume_ns a histogram with a policy label,
// and pool_size an unlabelled gauge.
package metricsuse

type registry struct{}

func (registry) Counter(family string, labels ...string) int   { return 0 }
func (registry) Gauge(family string, labels ...string) int     { return 0 }
func (registry) Histogram(family string, labels ...string) int { return 0 }

// InstrumentName mirrors the telemetry helper's shape.
func InstrumentName(family string, labels ...string) string { return family }

func use() {
	var r registry
	r.Counter("vmm_resumes_total", "policy", "horse") // clean: on-catalog family and label
	r.Counter("vmm_resume_totl")                      // want `instrument family "vmm_resume_totl" is not in the telemetry catalog`
	r.Gauge("vmm_resumes_total")                      // want `is a counter in the catalog but is used here as a gauge`
	r.Histogram("vmm_resume_ns", "mode", "x")         // want `label key "mode" is not declared for instrument "vmm_resume_ns"`
	r.Histogram("vmm_resume_ns", "policy", "horse")   // clean: on-catalog family and label
	_ = InstrumentName("bogus_family")                // want `instrument family "bogus_family" is not in the telemetry catalog`
	_ = InstrumentName("pool_size")                   // clean

	// Cluster routing site: the reason label is declared, the node
	// label is not.
	r.Counter("cluster_failovers_total", "reason", "node-failed") // clean: on-catalog family and label
	r.Counter("cluster_failovers_total", "node", "node00")        // want `label key "node" is not declared for instrument "cluster_failovers_total"`

	// A named constant is checked like a literal.
	const typo = "vmm_pause_totl"
	r.Counter(typo) // want `instrument family "vmm_pause_totl" is not in the telemetry catalog`

	// Dynamically computed names pass through unchecked.
	name := "runtime_chosen_total"
	r.Counter(name)

	r.Counter("experimental_total") //horselint:allow-metricname staged rollout, catalog entry lands with the dashboard
}
