package metricname_test

import (
	"testing"

	"github.com/horse-faas/horse/internal/analysis/analysistest"
	"github.com/horse-faas/horse/internal/analysis/metricname"
	"github.com/horse-faas/horse/internal/telemetry"
)

func TestMetricname(t *testing.T) {
	catalog := map[string]metricname.Instrument{
		"vmm_resumes_total":       {Kind: "counter", Labels: []string{"policy"}},
		"vmm_resume_ns":           {Kind: "histogram", Labels: []string{"policy"}},
		"pool_size":               {Kind: "gauge"},
		"cluster_failovers_total": {Kind: "counter", Labels: []string{"reason"}},
	}
	analysistest.Run(t, "testdata", metricname.New(catalog))
}

// TestDefaultCatalogCoversWiredFamilies pins the production analyzer to
// the telemetry catalog: every family the instrumented stack emits must
// resolve, so Default() over this repository stays green.
func TestDefaultCatalogCoversWiredFamilies(t *testing.T) {
	byFamily := map[string]bool{}
	for _, def := range telemetry.Catalog() {
		byFamily[def.Family] = true
	}
	for _, fam := range []string{
		"vmm_pauses_total", "vmm_resumes_total", "vmm_resume_lock_waits_total",
		"vmm_pause_ns", "vmm_resume_ns",
		"horse_splice_ops_total", "horse_spliced_vcpus_total",
		"horse_coalesced_updates_total", "horse_prepared_sandboxes",
		"faas_triggers_total", "faas_warm_pool_hits_total",
		"faas_warm_pool_misses_total",
		"faas_warm_pool_size",
		"cluster_triggers_total", "cluster_failovers_total",
		"cluster_node_load", "loadgen_arrivals_total",
	} {
		if !byFamily[fam] {
			t.Errorf("wired instrument family %q missing from telemetry catalog", fam)
		}
	}
}
