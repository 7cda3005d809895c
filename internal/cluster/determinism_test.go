package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/eventsim"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/loadgen"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/testutil"
	"github.com/horse-faas/horse/internal/trigtrace"
)

// matrixRun builds the 8-node regression topology with the given shard
// count, runs the standard seeded workload with a mid-stream node
// failure, and returns the cluster plus the rendered report (JSON and
// CSV) and Perfetto export — the full byte surface the determinism
// matrix compares.
func matrixRun(t *testing.T, shards int) (Report, []byte) {
	t.Helper()
	faults, err := faultinject.New(42, faultinject.Rule{Site: faultinject.SiteNodeFail, Nth: 20})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]NodeSpec, 8)
	for i := range specs {
		if i < 2 {
			specs[i].ULLSlots = 2
		}
	}
	c, err := New(Options{
		Specs:    specs,
		Policy:   PolicyULLAffinity,
		Seed:     42,
		Faults:   faults,
		Fallback: faas.FallbackConfig{Enabled: true},
		Shards:   shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	registerScan(t, c, faas.SandboxSpec{})
	if _, err := c.ScaleCluster("scan", 4, core.Horse); err != nil {
		t.Fatal(err)
	}
	ws, err := loadgen.ParseWorkloads("scan=poisson:rate=2000/s,mode=horse")
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run(RunConfig{
		Workloads: ws,
		Horizon:   200 * simtime.Millisecond,
		Payloads:  map[string][]byte{"scan": scanPayload(t)},
		SLO:       map[string]simtime.Duration{"scan": 1500 * simtime.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return report, renderRun(t, c, report)
}

// renderRun returns a run's full byte surface: the report as JSON and
// CSV, then the Perfetto export of the cluster's retained traces.
func renderRun(t *testing.T, c *Cluster, report Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trigtrace.WritePerfetto(&buf, c.Trace().Traces()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunDeterministicAcrossShardCounts is the conservative-PDES
// determinism matrix (DESIGN.md §13): the same seeded experiment must
// produce a byte-identical report, CSV, and Perfetto export at every
// shard count — sequential inline, two shards, an uneven node/shard
// split, and one goroutine per node — and under GOMAXPROCS=1, where
// the Go scheduler can never actually run two shards at once. Sharding
// may only change wall-clock time, never a single simulated byte.
func TestRunDeterministicAcrossShardCounts(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	baseline, want := matrixRun(t, 1)
	if baseline.Arrivals == 0 || baseline.Failovers == 0 {
		t.Fatalf("baseline run is not exercising the failover path: %d arrivals, %d failovers",
			baseline.Arrivals, baseline.Failovers)
	}
	for _, shards := range []int{2, 3, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			if _, got := matrixRun(t, shards); !bytes.Equal(got, want) {
				t.Fatalf("shards=%d produced different bytes than the sequential run (%d vs %d bytes)",
					shards, len(got), len(want))
			}
		})
	}
	t.Run("gomaxprocs-1", func(t *testing.T) {
		testutil.VerifyNoLeaks(t)
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		if _, got := matrixRun(t, 8); !bytes.Equal(got, want) {
			t.Fatal("GOMAXPROCS=1 sharded run diverged from the sequential run")
		}
	})
}

// TestTenantedRunDeterministicAcrossShardCounts extends the matrix to
// the tenantedCluster shape: ull-affinity, three tenants, and resume,
// invoke and cluster.node.fail faults. Most arrivals are refused at
// admission and ull-affinity places the rest on nodes 0 and 1, so a
// serve wave has at most two busy shards: at 8 shards six workers stay
// parked every wave, and about 40% of the waves queue work on one
// shard only, nearly always node 1's, which the barrier then serves on
// the coordinator. Which goroutine serves a shard must not move a
// byte.
func TestTenantedRunDeterministicAcrossShardCounts(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	run := func(shards int) (Report, []byte) {
		c, cfg := tenantedCluster(t, 100*simtime.Millisecond, shards)
		report, err := c.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return report, renderRun(t, c, report)
	}
	baseline, want := run(1)
	if baseline.Rejected == 0 || baseline.Failovers == 0 || baseline.Failed == 0 || len(baseline.Tenants) != 3 {
		t.Fatalf("baseline run misses a path: %d rejected, %d failovers, %d failed, %d tenants",
			baseline.Rejected, baseline.Failovers, baseline.Failed, len(baseline.Tenants))
	}
	for _, shards := range []int{2, 8} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			if _, got := run(shards); !bytes.Equal(got, want) {
				t.Fatalf("shards=%d produced different bytes than the sequential run (%d vs %d bytes)",
					shards, len(got), len(want))
			}
		})
	}
	t.Run("gomaxprocs-1", func(t *testing.T) {
		testutil.VerifyNoLeaks(t)
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		if _, got := run(8); !bytes.Equal(got, want) {
			t.Fatal("GOMAXPROCS=1 sharded run diverged from the sequential run")
		}
	})
}

// TestRunTwiceOnOneClusterMatchesFreshCluster is the cross-run
// state-leak regression: before resetRunState, a second Run on the
// same cluster inherited the first run's failover tallies, node
// placement counters, round-robin cursor, and — through the lazily
// armed recorder — its trace aggregates and retained flight traces,
// so the second report double-counted the first experiment. Now a
// second run's report must be byte-identical to a fresh cluster's.
// (Poisson arrivals are translation-invariant, so the later virtual
// start instant of run two cannot perturb the workload; every node is
// uLL-reserved with warm HORSE capacity ahead of the offered load, so
// no trigger degrades to a restore — a restore would leave a warm
// sandbox behind, which is platform capacity deliberately outside the
// per-run reset, like the fault injector's visit counters.)
func TestRunTwiceOnOneClusterMatchesFreshCluster(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	build := func() *Cluster {
		specs := make([]NodeSpec, 2)
		for i := range specs {
			specs[i].ULLSlots = 2
		}
		c, err := New(Options{
			Specs:    specs,
			Policy:   PolicyRoundRobin,
			Seed:     7,
			Fallback: faas.FallbackConfig{Enabled: true},
			Shards:   2,
		})
		if err != nil {
			t.Fatal(err)
		}
		registerScan(t, c, faas.SandboxSpec{})
		if _, err := c.ScaleCluster("scan", 4, core.Horse); err != nil {
			t.Fatal(err)
		}
		return c
	}
	ws, err := loadgen.ParseWorkloads("scan=poisson:rate=2000/s,mode=horse")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Workloads: ws,
		Horizon:   50 * simtime.Millisecond,
		Payloads:  map[string][]byte{"scan": scanPayload(t)},
		SLO:       map[string]simtime.Duration{"scan": 1500 * simtime.Nanosecond},
	}
	render := func(r Report) []byte {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fresh := build()
	want, err := fresh.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reused := build()
	first, err := reused.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(first), render(want)) {
		t.Fatal("first run on the reused cluster already diverges from the fresh cluster")
	}
	second, err := reused.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(second), render(want)) {
		t.Fatalf("second run's report differs from a fresh cluster's:\nfresh:  arrivals=%d served=%d failovers=%d\nsecond: arrivals=%d served=%d failovers=%d",
			want.Arrivals, want.Served, want.Failovers,
			second.Arrivals, second.Served, second.Failovers)
	}
}

// TestRunErrorPathsRecordNoModeOrNode pins the report invariant the
// zero-value-Placement audit closed: a trigger that errors must not
// contribute a served-mode or per-node latency sample, so the mode
// distribution counts sum exactly to Served and no row carries a
// zero-value StartMode label.
func TestRunErrorPathsRecordNoModeOrNode(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// An invoke fault every 10th visit on each node's derived stream
	// yields a steady population of terminal invocation failures.
	rules := []faultinject.Rule{{Site: faultinject.SiteInvoke, Every: 10}}
	report := runScanCluster(t, PolicyRoundRobin, 42, rules, nil)
	if report.Failed == 0 {
		t.Fatal("fault plan produced no failed triggers; the invariant is untested")
	}
	if got := report.Served + report.Rejected + report.Failed; got != report.Arrivals {
		t.Fatalf("served %d + rejected %d + failed %d = %d, want arrivals %d",
			report.Served, report.Rejected, report.Failed, got, report.Arrivals)
	}
	var modeCount, nodeCount uint64
	zeroMode := faas.StartMode(0).String()
	for _, m := range report.Modes {
		if m.Mode == "" || m.Mode == zeroMode {
			t.Fatalf("mode row %+v carries an error-path zero-value label", m)
		}
		modeCount += m.Count
	}
	if modeCount != report.Served {
		t.Fatalf("mode counts sum to %d, want exactly the %d served triggers", modeCount, report.Served)
	}
	for _, n := range report.NodeSummaries {
		nodeCount += n.Served
	}
	if nodeCount != report.Served {
		t.Fatalf("node served counts sum to %d, want %d", nodeCount, report.Served)
	}
}

// capRun runs the seeded scan workload on a fresh 4-node cluster with
// the given arrival cap and returns the report, its JSON bytes, and the
// run error.
func capRun(t *testing.T, maxEvents int) (Report, []byte, error) {
	t.Helper()
	c, err := New(Options{Specs: []NodeSpec{{ULLSlots: 2}, {ULLSlots: 2}, {ULLSlots: 2}, {ULLSlots: 2}}, Policy: PolicyLeastLoaded, Seed: 9, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	registerScan(t, c, faas.SandboxSpec{})
	if _, err := c.ScaleCluster("scan", 4, core.Horse); err != nil {
		t.Fatal(err)
	}
	ws, err := loadgen.ParseWorkloads("scan=poisson:rate=20000/s,mode=horse")
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Run(RunConfig{
		Workloads: ws,
		Horizon:   20 * simtime.Millisecond,
		Payloads:  map[string][]byte{"scan": scanPayload(t)},
		MaxEvents: maxEvents,
	})
	if err != nil {
		return Report{}, nil, err
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return report, buf.Bytes(), nil
}

// TestRunMaxEventsCapsArrivals pins RunConfig.MaxEvents as a cap on the
// arrivals a run takes in: a cap equal to the run's arrival count
// changes nothing, and a cap one lower is a runaway error matching
// eventsim.ErrMaxEvents.
func TestRunMaxEventsCapsArrivals(t *testing.T) {
	base, want, err := capRun(t, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.Arrivals < 2 {
		t.Fatalf("run generated %d arrivals, want several", base.Arrivals)
	}
	_, got, err := capRun(t, int(base.Arrivals))
	if err != nil {
		t.Fatalf("cap = arrival count (%d): %v", base.Arrivals, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a cap equal to the arrival count changed the report")
	}
	if _, _, err := capRun(t, int(base.Arrivals)-1); !errors.Is(err, eventsim.ErrMaxEvents) {
		t.Fatalf("cap = arrival count - 1: error %v, want eventsim.ErrMaxEvents", err)
	}
}
