package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	horse "github.com/horse-faas/horse"
	"github.com/horse-faas/horse/internal/cluster"
	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/loadgen"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/tenant"
	"github.com/horse-faas/horse/internal/workload"
)

// sample is what one unit of a workload yields: one measured phase,
// after the set-up it needs.
type sample struct {
	spans      map[string]float64 // per-layer spans, by metric name
	phase      phase              // the measured phase
	runS       float64            // host seconds the simulated triggers took
	triggers   float64            // simulated triggers in the measured phase
	servedFrac float64            // served arrivals (or passing claims) / total
	report     []byte             // the deterministic result, as JSON
	ref        float64            // reference seconds timed right after; 0 when traced
}

// bench is one benchmark workload.
type bench struct {
	name string
	// cluster is the cluster topology and load; nil for paper-repro.
	cluster *clusterScenario
	// ref is timed right after each measured unit (calib.go).
	ref reference
}

// scan-flood's two shards keep both cores busy; tenant-storm keeps
// about 1.3 busy and paper-repro one.
var benches = []bench{
	{name: "scan-flood", cluster: &scanFlood, ref: reference{kernel: recordsKernel, procs: 2}},
	{name: "tenant-storm", cluster: &tenantStorm, ref: reference{kernel: recordsKernel, procs: 1}},
	{name: "paper-repro", ref: reference{kernel: listKernel, procs: 1}},
}

func lookupBench(name string) (bench, error) {
	names := make([]string, 0, len(benches))
	for _, b := range benches {
		if b.name == name {
			return b, nil
		}
		names = append(names, b.name)
	}
	return bench{}, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, ", "))
}

// unit runs one set-up and one measured phase. tr is nil with tracing
// off.
func (b bench) unit(seed int64, tr *tracer) (sample, error) {
	if b.cluster != nil {
		return b.cluster.unit(seed, tr)
	}
	return paperUnit(seed, tr)
}

// setupBatch is the least host time one setup_s sample spans: set-ups
// take well under a millisecond, so each sample averages a batch.
const setupBatch = 50 * time.Millisecond

// setupSample times set-ups back to back for at least setupBatch,
// discarding what they built, and returns host seconds per set-up,
// rescaled by a setupRef timing taken right after.
func (b bench) setupSample(seed int64) (float64, error) {
	runtime.GC()
	start := time.Now()
	n := 0
	for time.Since(start) < setupBatch {
		var err error
		if b.cluster != nil {
			_, err = b.cluster.build(seed, nil, nil)
		} else {
			_, err = paperSetup()
		}
		if err != nil {
			return 0, err
		}
		n++
	}
	perSetup := time.Since(start).Seconds() / float64(n)
	ref := setupRef.time()
	fmt.Fprintf(os.Stderr, "set-up batch: %.3g s per set-up, reference %.4f s\n", perSetup, ref)
	return perSetup * scale(ref), nil
}

// clusterScenario is one cluster topology plus the open-loop load run
// on it.
type clusterScenario struct {
	nodes, ullNodes, ullSlots int
	pool                      int // pooled sandboxes per pool-backed mode, cluster-wide
	policy                    string
	shards                    int
	arrivals                  string // loadgen.ParseWorkloads syntax
	tenants                   string // tenant.ParseSpecs syntax
	ullAdmitRate              float64
	faults                    string // faultinject.ParseSpec syntax
	horizon                   simtime.Duration
}

// scanFlood is the BenchmarkClusterRun topology: every node reserved
// for uLL with warm HORSE scan pools, round-robin placement, and
// HORSE-only scan arrivals. Function bodies, pause/resume, and the
// serve barrier do the work.
var scanFlood = clusterScenario{
	nodes: 8, ullNodes: 8, ullSlots: 4,
	pool:     16,
	policy:   cluster.PolicyRoundRobin,
	shards:   2,
	arrivals: "scan=poisson:rate=5000000/s,mode=horse",
	horizon:  4 * simtime.Millisecond,
}

// tenantStorm scales the adversarial-tenants contract up under
// ull-affinity: a steady HORSE scan tenant, a greedy bursty NAT tenant,
// and an untenanted firewall on warm and restore starts, with resume,
// invoke, and node-failure faults. Admission, routing, failover, and
// the fallback chain do the work.
var tenantStorm = clusterScenario{
	nodes: 8, ullNodes: 2, ullSlots: 2,
	pool:   4,
	policy: cluster.PolicyULLAffinity,
	shards: 2,
	arrivals: "scan=poisson:rate=30000/s,mode=horse,tenant=steady;" +
		"nat=onoff:on=2ms,off=8ms,rate=2000000/s,mode=horse,tenant=greedy;" +
		"firewall=poisson:rate=20000/s,mode=warm:3+restore:1",
	tenants:      "steady:weight=4,slots=3;greedy:weight=1,rate=25000/s,burst=500,slots=1",
	ullAdmitRate: 60000,
	faults:       "resume:rate=0.02,invoke:rate=0.001,cluster.node.fail:nth=5000",
	horizon:      200 * simtime.Millisecond,
}

// functionFor returns the function a workload clause names and the
// payload every trigger of it sends (the horsesim cluster choices).
func functionFor(name string) (workload.Function, []byte, error) {
	var (
		fn  workload.Function
		req any
	)
	switch name {
	case "firewall":
		fn, req = workload.DefaultFirewall(), workload.FirewallRequest{SrcIP: "10.1.2.3", DstPort: 443}
	case "nat":
		fn, req = workload.DefaultNAT(), workload.NATPacket{DstIP: "203.0.113.10", DstPort: 80}
	case "scan":
		fn, req = workload.NewScan(42), workload.ScanRequest{Threshold: 5000}
	default:
		return nil, nil, fmt.Errorf("no function for workload %q", name)
	}
	payload, err := json.Marshal(req)
	return fn, payload, err
}

// rig is a built, provisioned, settled cluster ready to run.
type rig struct {
	c         *cluster.Cluster
	workloads []loadgen.Workload
	payloads  map[string][]byte
}

// build sets the scenario up: cluster construction, function
// registration, pool provisioning, and the settle that ends set-up. It
// records the three set-up spans into spans when spans is non-nil and
// threads tr's registry and invoke timer in when tr is non-nil.
func (s clusterScenario) build(seed int64, tr *tracer, spans map[string]float64) (*rig, error) {
	mark := time.Now()
	span := func(name string) {
		now := time.Now()
		if spans != nil {
			spans[name] += now.Sub(mark).Seconds()
		}
		mark = now
	}
	ws, err := loadgen.ParseWorkloads(s.arrivals)
	if err != nil {
		return nil, err
	}
	faults, err := faultinject.FromSpec(seed, s.faults)
	if err != nil {
		return nil, err
	}
	var tenants []tenant.Spec
	if s.tenants != "" {
		if tenants, err = tenant.ParseSpecs(s.tenants); err != nil {
			return nil, err
		}
	}
	specs := make([]cluster.NodeSpec, s.nodes)
	for i := 0; i < s.ullNodes; i++ {
		specs[i].ULLSlots = s.ullSlots
	}
	c, err := cluster.New(cluster.Options{
		Specs:        specs,
		Policy:       s.policy,
		Seed:         seed,
		Faults:       faults,
		Metrics:      tr.registry(),
		Fallback:     faas.FallbackConfig{Enabled: true},
		Shards:       s.shards,
		Tenants:      tenants,
		ULLAdmitRate: s.ullAdmitRate,
	})
	if err != nil {
		return nil, err
	}
	span("setup.new_s")
	r := &rig{c: c, workloads: ws, payloads: make(map[string][]byte, len(ws))}
	for _, w := range ws {
		fn, payload, err := functionFor(w.Function)
		if err != nil {
			return nil, err
		}
		if err := c.RegisterEverywhere(tr.wrap(fn), faas.SandboxSpec{VCPUs: 1, MemoryMB: 128}); err != nil {
			return nil, err
		}
		if err := c.BindTenant(w.Function, w.Tenant); err != nil {
			return nil, err
		}
		r.payloads[w.Function] = payload
	}
	span("setup.register_s")
	for _, w := range ws {
		// One pool per pool-backed start mode in the mix, as horsesim
		// provisions them: HORSE pools for horse, vanilla for warm.
		done := map[core.Policy]bool{}
		for _, share := range w.Mix {
			policy := core.Horse
			switch share.Mode {
			case faas.ModeHorse:
			case faas.ModeWarm:
				policy = core.Vanilla
			default:
				continue
			}
			if done[policy] {
				continue
			}
			done[policy] = true
			if _, err := c.ScaleCluster(w.Function, s.pool, policy); err != nil {
				return nil, fmt.Errorf("provisioning %s %s pool: %w", w.Function, policy, err)
			}
		}
	}
	c.Settle()
	span("setup.scale_s")
	return r, nil
}

// unit builds the scenario, runs it to the horizon, and renders the
// report. The measured phase is Run plus the JSON report.
func (s clusterScenario) unit(seed int64, tr *tracer) (sample, error) {
	spans := map[string]float64{}
	r, err := s.build(seed, tr, spans)
	if err != nil {
		return sample{}, err
	}
	m := startMeter()
	runStart := time.Now()
	runCPU := processCPU()
	report, err := r.c.Run(cluster.RunConfig{Workloads: r.workloads, Horizon: s.horizon, Payloads: r.payloads})
	if err != nil {
		return sample{}, err
	}
	runS := time.Since(runStart).Seconds()
	spans["cluster.run_s"] = runS
	spans["cluster.run_cpu_s"] = (processCPU() - runCPU).Seconds()
	jsonStart := time.Now()
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		return sample{}, err
	}
	spans["cluster.report_json_s"] = time.Since(jsonStart).Seconds()
	ph := m.stop()
	if err := checkClusterReport(report); err != nil {
		return sample{}, err
	}
	return sample{
		spans:      spans,
		phase:      ph,
		runS:       runS,
		triggers:   float64(report.Arrivals),
		servedFrac: float64(report.Served) / float64(report.Arrivals),
		report:     buf.Bytes(),
	}, nil
}

// checkClusterReport applies the accounting invariants every run must
// keep.
func checkClusterReport(r cluster.Report) error {
	if r.Arrivals == 0 {
		return fmt.Errorf("run generated no arrivals")
	}
	if got := r.Served + r.Rejected + r.Failed; got != r.Arrivals {
		return fmt.Errorf("served %d + rejected %d + failed %d = %d, want arrivals %d",
			r.Served, r.Rejected, r.Failed, got, r.Arrivals)
	}
	var modes uint64
	for _, m := range r.Modes {
		modes += m.Count
	}
	if modes != r.Served {
		return fmt.Errorf("mode counts sum to %d, want served %d", modes, r.Served)
	}
	if r.TraceReconcileFailures != 0 {
		return fmt.Errorf("%d traces do not reconcile with their latency", r.TraceReconcileFailures)
	}
	return nil
}

// collectNsPerArrival prices the arrival generator alone: a standalone
// Generator.Collect over the scenario's seed and horizon.
func (s clusterScenario) collectNsPerArrival(seed int64) (float64, error) {
	ws, err := loadgen.ParseWorkloads(s.arrivals)
	if err != nil {
		return 0, err
	}
	gen, err := loadgen.New(seed, ws, loadgen.Options{})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	arrivals, err := gen.Collect(s.horizon)
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}
	if len(arrivals) == 0 {
		return 0, fmt.Errorf("generator produced no arrivals")
	}
	return float64(elapsed.Nanoseconds()) / float64(len(arrivals)), nil
}

// paperClaims is how many claims VerifyClaims checks.
const paperClaims = 21

// paperResults is every result the horsebench "all" experiment set
// produces, plus the verified claims; its JSON is the workload's report.
type paperResults struct {
	Table1     horse.InitBreakdown
	Fig2       []horse.Fig2Point
	Fig3       []horse.Fig3Point
	Fig3Sum    horse.Fig3Summary
	Fig4       horse.InitBreakdown
	Fig4Gain   map[string]map[string]float64
	Overhead   []horse.OverheadResult
	Ablation   []horse.ULLQueueSweepPoint
	Dispatch   []horse.DispatchResult
	Colocation horse.ColocationComparison
	Claims     []horse.ClaimResult
}

// paperUnit runs the experiment set once through the horse facade. The
// seed drives the §5.4 colocation trace; the rest is fixed by the paper.
func paperUnit(seed int64, tr *tracer) (sample, error) {
	var res paperResults
	tel := horse.ExperimentTelemetry{Metrics: tr.registry()}
	steps := []struct {
		name string
		run  func() error
	}{
		{"table1", func() (err error) {
			res.Table1, err = horse.RunTable1()
			return err
		}},
		{"fig2", func() (err error) {
			res.Fig2, err = horse.RunFig2Traced(nil, tel)
			return err
		}},
		{"fig3", func() (err error) {
			if res.Fig3, err = horse.RunFig3Traced(nil, tel); err != nil {
				return err
			}
			res.Fig3Sum, err = horse.SummarizeFig3(res.Fig3)
			return err
		}},
		{"fig4", func() (err error) {
			if res.Fig4, err = horse.RunFig4(); err != nil {
				return err
			}
			res.Fig4Gain, err = res.Fig4.SpeedupVsHorse()
			return err
		}},
		{"overhead", func() (err error) {
			res.Overhead, err = horse.RunOverhead(horse.OverheadConfig{}, nil)
			return err
		}},
		{"ablation", func() (err error) {
			if res.Ablation, err = horse.RunULLQueueSweep(horse.ULLQueueSweepConfig{}, nil); err != nil {
				return err
			}
			if res.Dispatch, err = horse.RunULLDispatch(); err != nil {
				return err
			}
			// RunULLDispatch returns its rows in map order; the report
			// pins them in name order.
			sort.Slice(res.Dispatch, func(i, j int) bool { return res.Dispatch[i].Workload < res.Dispatch[j].Workload })
			return nil
		}},
		{"colocation", func() (err error) {
			res.Colocation, err = horse.RunColocation(horse.ColocationConfig{Seed: seed})
			return err
		}},
		{"verify", func() (err error) {
			res.Claims, err = horse.VerifyClaims()
			return err
		}},
	}
	spans := make(map[string]float64, len(steps))
	m := startMeter()
	for _, st := range steps {
		start := time.Now()
		if err := st.run(); err != nil {
			return sample{}, fmt.Errorf("%s: %w", st.name, err)
		}
		spans["experiments."+st.name+"_s"] = time.Since(start).Seconds()
	}
	report, err := json.Marshal(res)
	ph := m.stop()
	if err != nil {
		return sample{}, err
	}
	passed := 0
	var failing []string
	for _, c := range res.Claims {
		if c.Pass {
			passed++
		} else {
			failing = append(failing, c.ID)
		}
	}
	if len(res.Claims) != paperClaims || passed != paperClaims {
		sort.Strings(failing)
		return sample{}, fmt.Errorf("%d/%d paper claims pass, want %d/%d (failing: %s)",
			passed, len(res.Claims), paperClaims, paperClaims, strings.Join(failing, ", "))
	}
	// The uLL triggers of the experiment set are taken as the §5.4
	// replay's periodic resumes, each of which spawns a merge burst.
	triggers := res.Colocation.Horse.MergeBursts + res.Colocation.Vanilla.MergeBursts
	return sample{
		spans:      spans,
		phase:      ph,
		runS:       ph.wallS,
		triggers:   float64(triggers),
		servedFrac: float64(passed) / float64(len(res.Claims)),
		report:     report,
	}, nil
}

// paperSetup times the state every Table 1 / Figure 4 scenario builds
// before its first trigger: a platform with the three uLL functions
// registered and a HORSE pool provisioned for each.
func paperSetup() (float64, error) {
	start := time.Now()
	p, err := horse.NewPlatform()
	if err != nil {
		return 0, err
	}
	for _, fn := range []horse.Function{horse.NewFirewallFunction(), horse.NewNATFunction(), horse.NewScanFunction(42)} {
		if _, err := p.Register(fn, horse.SandboxSpec{VCPUs: 1, MemoryMB: 512}); err != nil {
			return 0, err
		}
		if err := p.Provision(fn.Name(), 1, horse.PolicyHorse); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}
