package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/loadgen"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/tenant"
	"github.com/horse-faas/horse/internal/trigtrace"
	"github.com/horse-faas/horse/internal/workload"
)

// benchCluster builds the 8-node regression topology (2 reserved nodes)
// with the scan deployed everywhere and HORSE pools on the reserved
// nodes.
func benchCluster(b testing.TB, policy string) *Cluster {
	b.Helper()
	specs := make([]NodeSpec, 8)
	for i := range specs {
		if i < 2 {
			specs[i].ULLSlots = 2
		}
	}
	c, err := New(Options{Specs: specs, Policy: policy, Seed: 42, Fallback: faas.FallbackConfig{Enabled: true}})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.RegisterEverywhere(workload.NewScan(1), faas.SandboxSpec{VCPUs: 1, MemoryMB: 128}); err != nil {
		b.Fatal(err)
	}
	if _, err := c.ScaleCluster("scan", 4, core.Horse); err != nil {
		b.Fatal(err)
	}
	c.Settle()
	return c
}

// BenchmarkRouting measures one placement decision — the cluster-layer
// cost every trigger pays before any sandbox work starts.
func BenchmarkRouting(b *testing.B) {
	for _, policy := range Policies() {
		b.Run(policy, func(b *testing.B) {
			c := benchCluster(b, policy)
			now := c.clock.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.router.Pick(c, "scan", true, nil, now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterTrigger measures the full routed trigger: placement,
// clock sync, HORSE resume, invoke, re-pool.
func BenchmarkClusterTrigger(b *testing.B) {
	c := benchCluster(b, PolicyULLAffinity)
	payload, err := json.Marshal(workload.ScanRequest{Threshold: 5000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Trigger("scan", faas.ModeHorse, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// benchShardedCluster is benchCluster with a shard count, sized so
// every node carries warm HORSE capacity (the serve path the paper's
// throughput claims are about). Round-robin placement spreads the
// single benchmark function evenly — ull-affinity would pin it to one
// ring owner and measure that node, not the cluster.
func benchShardedCluster(b *testing.B, shards int) *Cluster {
	b.Helper()
	specs := make([]NodeSpec, 8)
	for i := range specs {
		specs[i].ULLSlots = 4
	}
	c, err := New(Options{
		Specs:    specs,
		Policy:   PolicyRoundRobin,
		Seed:     42,
		Fallback: faas.FallbackConfig{Enabled: true},
		Shards:   shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.RegisterEverywhere(workload.NewScan(1), faas.SandboxSpec{VCPUs: 1, MemoryMB: 128}); err != nil {
		b.Fatal(err)
	}
	if _, err := c.ScaleCluster("scan", 16, core.Horse); err != nil {
		b.Fatal(err)
	}
	c.Settle()
	return c
}

// tenantedCluster builds the adversarial-tenants shape under
// ull-affinity on 8 nodes (2 uLL-reserved, 2 slots each), served on
// the given number of shards: three tenants — a steady HORSE scan tenant, a greedy bursty
// NAT tenant, and a rate-limited batch tenant on firewall warm and
// restore starts — with resume, invoke and node-failure faults. Most
// arrivals are refused at the admission gate, so the run is dominated
// by the coordinator's per-arrival work: admission, trace start and
// finish, and the report. It returns the cluster and the run over
// horizon.
func tenantedCluster(tb testing.TB, horizon simtime.Duration, shards int) (*Cluster, RunConfig) {
	tb.Helper()
	ws, err := loadgen.ParseWorkloads("scan=poisson:rate=30000/s,mode=horse,tenant=steady;" +
		"nat=onoff:on=2ms,off=8ms,rate=2000000/s,mode=horse,tenant=greedy;" +
		"firewall=poisson:rate=20000/s,mode=warm:3+restore:1,tenant=batch")
	if err != nil {
		tb.Fatal(err)
	}
	tenants, err := tenant.ParseSpecs("steady:weight=4,slots=3;greedy:weight=1,rate=25000/s,burst=500,slots=1;" +
		"batch:weight=1,rate=15000/s,burst=100")
	if err != nil {
		tb.Fatal(err)
	}
	faults, err := faultinject.FromSpec(1, "resume:rate=0.02,invoke:rate=0.001,cluster.node.fail:nth=5000")
	if err != nil {
		tb.Fatal(err)
	}
	specs := make([]NodeSpec, 8)
	specs[0].ULLSlots, specs[1].ULLSlots = 2, 2
	c, err := New(Options{
		Specs:        specs,
		Policy:       PolicyULLAffinity,
		Seed:         1,
		Faults:       faults,
		Fallback:     faas.FallbackConfig{Enabled: true},
		Shards:       shards,
		Tenants:      tenants,
		ULLAdmitRate: 60000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	fns := map[string]struct {
		fn     workload.Function
		req    any
		policy core.Policy
	}{
		"scan":     {workload.NewScan(42), workload.ScanRequest{Threshold: 5000}, core.Horse},
		"nat":      {workload.DefaultNAT(), workload.NATPacket{DstIP: "203.0.113.10", DstPort: 80}, core.Horse},
		"firewall": {workload.DefaultFirewall(), workload.FirewallRequest{SrcIP: "10.1.2.3", DstPort: 443}, core.Vanilla},
	}
	payloads := make(map[string][]byte, len(ws))
	for _, w := range ws {
		f := fns[w.Function]
		if err := c.RegisterEverywhere(f.fn, faas.SandboxSpec{VCPUs: 1, MemoryMB: 128}); err != nil {
			tb.Fatal(err)
		}
		if err := c.BindTenant(w.Function, w.Tenant); err != nil {
			tb.Fatal(err)
		}
		if _, err := c.ScaleCluster(w.Function, 4, f.policy); err != nil {
			tb.Fatal(err)
		}
		if payloads[w.Function], err = json.Marshal(f.req); err != nil {
			tb.Fatal(err)
		}
	}
	c.Settle()
	return c, RunConfig{Workloads: ws, Horizon: horizon, Payloads: payloads}
}

// BenchmarkClusterRun measures the full conservative-PDES run loop at
// scale: one million-plus arrivals over an 8-node cluster, sequential
// versus one shard per node. The benchmark's triggers/sec custom
// metric is the budget BENCH_cluster.json tracks. Per-trigger wall
// cost is dominated by the scan workload's real JSON work inside the
// sandbox (BenchmarkClusterTrigger, ~45 µs), which is exactly the work
// the serve barrier spreads across shards — so on an N-core host the
// sharded run's throughput scales toward min(N, nodes)×, while on a
// single-core host it can only show the barrier overhead (see the
// recorded baseline's host_cpus).
func BenchmarkClusterRun(b *testing.B) {
	// 5 M arrivals per virtual second over a 250 ms horizon ≈ 1.25 M
	// arrivals per run.
	ws, err := loadgen.ParseWorkloads("scan=poisson:rate=5000000/s,mode=horse")
	if err != nil {
		b.Fatal(err)
	}
	payload, err := json.Marshal(workload.ScanRequest{Threshold: 5000})
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := benchShardedCluster(b, shards)
				b.StartTimer()
				report, err := c.Run(RunConfig{
					Workloads: ws,
					Horizon:   250 * simtime.Millisecond,
					Payloads:  map[string][]byte{"scan": payload},
				})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if report.Arrivals < 1_000_000 {
					b.Fatalf("run generated %d arrivals, want 1M+", report.Arrivals)
				}
				b.ReportMetric(float64(report.Arrivals)*float64(b.N)/b.Elapsed().Seconds(), "triggers/s")
				b.StartTimer()
			}
		})
	}
	// The tenanted run: the tenantedCluster shape over a 200 ms horizon,
	// about 90k arrivals of which about 83% are admission rejects.
	b.Run("tenanted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c, cfg := tenantedCluster(b, 200*simtime.Millisecond, 2)
			b.StartTimer()
			report, err := c.Run(cfg)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(report.Arrivals)*float64(b.N)/b.Elapsed().Seconds(), "triggers/s")
			b.StartTimer()
		}
	})
}

// BenchmarkReportBuild measures report assembly plus CSV rendering:
// each iteration builds the report — mode, node and attribution
// quantiles — from one builder and one trace recorder populated here
// with 100k served arrivals over two modes and eight nodes, then
// renders it. Queue waits take about a thousand distinct values, as
// simulated latencies do.
func BenchmarkReportBuild(b *testing.B) {
	c := benchCluster(b, PolicyULLAffinity)
	rec := trigtrace.NewRecorder(trigtrace.RecorderOptions{Seed: 42})
	c.SetTrace(rec)
	c.SetSLOBudget("scan", DefaultULLBudget)
	// The report reads the attribution through a run's claim, as Run
	// builds it.
	claim, err := rec.Claim()
	if err != nil {
		b.Fatal(err)
	}
	c.claim = claim
	defer c.releaseClaim()
	builder := newReportBuilder(c, 100*simtime.Millisecond)
	rng := rand.New(rand.NewSource(1))
	modes := []faas.StartMode{faas.ModeHorse, faas.ModeWarm}
	job := &pendingJob{entry: c.deployments["scan"]}
	for i := 0; i < 100_000; i++ {
		job.inv.Mode, job.node = modes[i%len(modes)], c.nodes[i%len(c.nodes)]
		mode, node := job.inv.Mode.String(), job.node.id
		wait := simtime.Duration(150 * rng.Intn(1000))
		invoke := simtime.Duration(1500 + 50*rng.Intn(4))
		tc := claim.Start(uint64(i), "scan", mode, 0, DefaultULLBudget)
		tc.RecordOn(trigtrace.StageQueueWait, 0, wait, node, mode, "")
		tc.RecordOn(trigtrace.StageResume, 0, 150, node, mode, "")
		tc.RecordOn(trigtrace.StageInvoke, 0, invoke, node, mode, "")
		job.latency = wait + 150 + invoke
		tc.Complete(trigtrace.Outcome{Served: mode, Node: node, Latency: job.latency})
		builder.record(job)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := builder.build().WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
