package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"testing"
	"time"
)

// ledgerTolerance is how far the summed layer prices of one trigger may
// fall from the whole routed trigger, as a share of the whole. The
// residual is the work no part prices (pool take, clock sync,
// telemetry, fallback bookkeeping); on a 2-cpu Xeon it measured 6-18%.
const ledgerTolerance = 0.25

func TestLedgerReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("prices every layer of a trigger")
	}
	l, err := runLedger()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(l))
	for name := range l {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Logf("%-30s %12.1f", name, l[name])
	}
	r := l["ledger.residual_frac"]
	t.Logf("residual: %.1f%% of the %.0f ns trigger is priced by no part", 100*r, l["ledger.cluster_trigger_ns"])
	if math.Abs(r) > ledgerTolerance {
		t.Errorf("layer prices leave %.1f%% of the trigger unexplained, want within ±%.0f%%", 100*r, 100*ledgerTolerance)
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"github.com/horse-faas/horse/internal/workload.(*Scan).IndexesAbove"}, "workload"},
		{[]string{"encoding/json.(*encodeState).marshal", "github.com/horse-faas/horse/internal/workload.(*Scan).Invoke"}, "encoding_json"},
		{[]string{"strconv.AppendInt", "encoding/json.intEncoder", "github.com/horse-faas/horse/internal/workload.(*Scan).Invoke"}, "encoding_json"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "encoding/json.Marshal"}, "runtime_malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.schedule"}, "runtime_sched"},
		{[]string{"runtime.mapaccess2_faststr", "github.com/horse-faas/horse/internal/cluster.(*Cluster).routeJob"}, "cluster"},
		{[]string{"github.com/horse-faas/horse/internal/psm.(*Precomputed[go.shape.*github.com/horse-faas/horse/internal/runqueue.Entity]).Merge"}, "psm"},
		{[]string{"github.com/horse-faas/horse/internal/simtime.(*Clock).Advance"}, "other"},
		{[]string{"sort.Strings"}, "other"},
		{nil, "other"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	payload := map[string][]int{"indexes": make([]int, 512)}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		if _, err := json.Marshal(payload); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, b := range cpuBuckets {
		sum += shares[b]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["encoding_json"] < 0.3 {
		t.Errorf("encoding_json share %.2f of a JSON loop, want most of it", shares["encoding_json"])
	}
}

// TestSpecMatches keeps BENCHMARK.json's workloads, the program's, and
// the pinned digests in step.
func TestSpecMatches(t *testing.T) {
	raw, err := os.ReadFile("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}

	var exp expectation
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(benches) {
		t.Fatalf("%s lists %d workloads, the program has %d", specFile, len(spec.Workloads), len(benches))
	}
	for i, b := range benches {
		if spec.Workloads[i].Name != b.name {
			t.Errorf("workload %d: %s has %s, the program %s", i, specFile, spec.Workloads[i].Name, b.name)
		}
		if len(exp.SHA256[b.name]) != 64 {
			t.Errorf("expect.json pins no sha256 for %s", b.name)
		}
	}
}

// TestReferenceKernelsFixed pins the reference kernels' work: rescaled
// timings compare across commits only while the kernels stay the same.
func TestReferenceKernelsFixed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kernel func() uint64
		want   uint64
	}{
		{"recordsKernel", recordsKernel, 0x1d15468261f3686},
		{"listKernel", listKernel, 0xc2b94628},
	} {
		if got := tc.kernel(); got != tc.want {
			t.Errorf("%s() = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
