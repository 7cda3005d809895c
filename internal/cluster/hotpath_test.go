package cluster

import (
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"testing"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/loadgen"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/tenant"
	"github.com/horse-faas/horse/internal/trigtrace"
	"github.com/horse-faas/horse/internal/workload"
)

// Allocation sinks keep the pinned calls from being optimized away.
var (
	sinkBool    bool
	sinkHash    uint64
	sinkDur     simtime.Duration
	sinkVerdict tenant.Verdict
	sinkInt     int
)

// hotpathCluster builds the 8-node routing topology (2 uLL-reserved
// nodes) without deployments: routing decisions only read node state.
func hotpathCluster(t *testing.T, policy string) *Cluster {
	t.Helper()
	specs := make([]NodeSpec, 8)
	for i := range specs {
		if i < 2 {
			specs[i].ULLSlots = 2
		}
	}
	c, err := New(Options{Specs: specs, Policy: policy, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Allocation pins for every //horselint:hotpath function in this
// package: the routing decision every trigger pays — policy pick, ring
// hash, lag reads — must be allocation-free, matching the hotpath
// analyzer's static verdict.
func TestHotPathAllocFree(t *testing.T) {
	c := hotpathCluster(t, PolicyULLAffinity)
	a, ok := c.router.policy.(*ullAffinity)
	if !ok {
		t.Fatalf("router policy is %T, want *ullAffinity", c.router.policy)
	}
	now := c.clock.Now()
	node := c.nodes[0]
	rr := &roundRobin{}
	ll := leastLoaded{}

	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.router.Pick(c, "scan", true, nil, now); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Router.Pick allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkBool = eligible(node, nil)
	}); n != 0 {
		t.Errorf("eligible allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := rr.pick(c, "scan", false, nil, now); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("roundRobin.pick allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ll.pick(c, "scan", false, nil, now); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("leastLoaded.pick allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := minLag(c.nodes, nil, now); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("minLag allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := a.pick(c, "scan", true, nil, now); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ullAffinity.pick allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkDur = a.allowedLag(c, nil, now)
	}); n != 0 {
		t.Errorf("ullAffinity.allowedLag allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkHash = hash64("scan")
	}); n != 0 {
		t.Errorf("hash64 allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkDur = node.Lag(now)
	}); n != 0 {
		t.Errorf("Node.Lag allocates %v per run, want 0", n)
	}

	// The tenant admission gate runs once per arrival ahead of every
	// pick; it must be as allocation-free as the pick itself. Pinned
	// both with a contract armed and on the untenanted fast path.
	tenanted, err := New(Options{
		Specs:        []NodeSpec{{ULLSlots: 2}, {ULLSlots: 2}},
		Seed:         42,
		Tenants:      []tenant.Spec{{Name: "acme", Weight: 3, Rate: 1e6}, {Name: "bg", Weight: 1}},
		ULLAdmitRate: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	tnow := tenanted.clock.Now()
	if n := testing.AllocsPerRun(100, func() {
		sinkVerdict = tenanted.tenants.Admit(0, tnow, true)
	}); n != 0 {
		t.Errorf("Controller.Admit (tenanted) allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkVerdict = c.tenants.Admit(-1, now, true)
	}); n != 0 {
		t.Errorf("Controller.Admit (untenanted) allocates %v per run, want 0", n)
	}

	// The whole routed trigger — admit, route, serve from the node queue,
	// settle, trace completion — on the BenchmarkClusterTrigger topology
	// is not allocation-free (the caller's copy of the output allocates),
	// so it is pinned to its committed BENCH_cluster.json budget instead
	// of zero. No sync.Pool is on this path, so the count holds under
	// -race as well.
	t.Run("Cluster.Trigger", func(t *testing.T) {
		c := benchCluster(t, PolicyULLAffinity)
		payload, err := json.Marshal(workload.ScanRequest{Threshold: 5000})
		if err != nil {
			t.Fatal(err)
		}
		budget := clusterTriggerAllocBudget(t)
		if n := testing.AllocsPerRun(100, func() {
			if _, _, err := c.Trigger("scan", faas.ModeHorse, payload); err != nil {
				t.Fatal(err)
			}
		}); n > budget {
			t.Errorf("Cluster.Trigger allocates %v per run, budget %v (BENCH_cluster.json)", n, budget)
		}
	})

	// Every rescale sums each node's committed pool memory over the
	// deployments. The sum walks them in place: it lists and sorts no
	// names.
	t.Run("Node.committedMB", func(t *testing.T) {
		c := benchCluster(t, PolicyULLAffinity)
		if err := c.RegisterEverywhere(workload.NewThumbnail(), faas.SandboxSpec{VCPUs: 1, MemoryMB: 256}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ScaleCluster("thumbnail", 8, core.Vanilla); err != nil {
			t.Fatal(err)
		}
		node := c.nodes[0]
		if got := node.committedMB(c); got == 0 {
			t.Fatal("node 0 commits no pool memory; the pin would measure an empty sum")
		}
		if n := testing.AllocsPerRun(100, func() {
			sinkInt = node.committedMB(c)
		}); n != 0 {
			t.Errorf("Node.committedMB allocates %v per run, want 0", n)
		}
	})

	// An arrival the tenant gate rejects takes its job from the free
	// list and its error from the tenant's cached rejects; with a
	// recorder armed, its trace comes back once the must-keep ring
	// evicts it. Either way the rejected path allocates nothing.
	t.Run("Cluster.Trigger-rejected", func(t *testing.T) {
		payload, err := json.Marshal(workload.ScanRequest{Threshold: 5000})
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			c := rejectingCluster(t)
			if traced {
				c.SetTrace(trigtrace.NewRecorder(trigtrace.RecorderOptions{Seed: 1, Capacity: 8, WorstK: 2}))
			}
			for i := 0; i < 32; i++ {
				_, _, _ = c.Trigger("scan", faas.ModeHorse, payload)
			}
			if n := testing.AllocsPerRun(100, func() {
				if _, _, err := c.Trigger("scan", faas.ModeHorse, payload); !errors.Is(err, ErrAdmissionRejected) {
					t.Fatalf("trigger past the burst = %v, want an admission reject", err)
				}
			}); n != 0 {
				t.Errorf("rejected Cluster.Trigger (traced %v) allocates %v per run, want 0", traced, n)
			}
		}
	})

	// A run serves every scan output into its node's one response
	// buffer, reuses its jobs across epochs, recycles the traces its
	// flight recorder does not keep, re-arms each pause's P²SM
	// precompute in place, keeps its report and attribution latencies
	// as counts per distinct value, and decodes each scan request
	// without allocating. This run allocates about 53 B per arrival,
	// most of it per-run set-up and report building (at 16× the
	// arrivals it reads 14 B). A run that made any per-trigger garbage
	// again — a request decode, a trace, a step report, a precompute,
	// an output, a retained latency sample — would cross 128 B. The
	// bytes are counted over the Run call only.
	t.Run("Cluster.Run", func(t *testing.T) {
		c := benchCluster(t, PolicyULLAffinity)
		ws, err := loadgen.ParseWorkloads("scan=poisson:rate=200000/s,mode=horse")
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(workload.ScanRequest{Threshold: 5000})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		report, err := c.Run(RunConfig{
			Workloads: ws,
			Horizon:   20 * simtime.Millisecond,
			Payloads:  map[string][]byte{"scan": payload},
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if report.Arrivals < 1000 || report.Served != report.Arrivals {
			t.Fatalf("run served %d of %d arrivals, want all of 1000+", report.Served, report.Arrivals)
		}
		const budget = 128
		perArrival := float64(after.TotalAlloc-before.TotalAlloc) / float64(report.Arrivals)
		t.Logf("Cluster.Run allocates %.0f B per arrival over %d arrivals", perArrival, report.Arrivals)
		if perArrival > budget {
			t.Errorf("Cluster.Run allocates %.0f B per arrival, budget %d B", perArrival, budget)
		}
	})

	// The tenanted run (tenantedCluster): admission rejects, failovers,
	// pool misses down the fallback chain, and three tenants' report
	// rows. A rejected arrival reuses its tenant's cached error and a
	// pool miss its deployment's; jobs and traces come from free lists,
	// and the report tallies by dense index. This run allocates about
	// 131 B per arrival, most of it set-up that a longer run amortizes:
	// each recycled trace's first stage list, the first jobs and traces,
	// the restore and cold starts' sandboxes, and the NAT and firewall
	// bodies' own garbage; the serve barrier's handler closure is one
	// allocation per wave. Formatting one error or minting one trace per
	// arrival again would cross 192 B.
	t.Run("Cluster.Run-tenanted", func(t *testing.T) {
		c, cfg := tenantedCluster(t, 20*simtime.Millisecond, 2)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		report, err := c.Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if report.Arrivals < 1000 || report.Rejected == 0 || len(report.Tenants) != 3 {
			t.Fatalf("run saw %d arrivals, %d rejected, %d tenants; want 1000+, some, 3",
				report.Arrivals, report.Rejected, len(report.Tenants))
		}
		const budget = 192
		perArrival := float64(after.TotalAlloc-before.TotalAlloc) / float64(report.Arrivals)
		t.Logf("tenanted Cluster.Run allocates %.0f B per arrival over %d arrivals", perArrival, report.Arrivals)
		if perArrival > budget {
			t.Errorf("tenanted Cluster.Run allocates %.0f B per arrival, budget %d B", perArrival, budget)
		}
	})
}

// clusterTriggerAllocBudget reads BenchmarkClusterTrigger's
// max_allocs_per_op from the committed BENCH_cluster.json.
func clusterTriggerAllocBudget(t *testing.T) float64 {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_cluster.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Budget map[string]struct {
			MaxAllocsPerOp *float64 `json:"max_allocs_per_op"`
		} `json:"budget"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	budget := bench.Budget["BenchmarkClusterTrigger"].MaxAllocsPerOp
	if budget == nil {
		t.Fatal("BENCH_cluster.json has no BenchmarkClusterTrigger max_allocs_per_op")
	}
	return *budget
}
