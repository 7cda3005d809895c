package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	horse "github.com/horse-faas/horse"
)

// runCluster is the cluster subcommand: the multi-node deployment of
// DESIGN.md §11. It builds N nodes (the first -ull-nodes of them with
// reserved uLL slots), registers every function named by the -arrivals
// workload list, provisions warm/HORSE pools, runs the open-loop
// generator to the horizon, and writes the aggregated report as CSV or
// JSON. The run is deterministic: the same flags produce a
// byte-identical report.
func runCluster(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("horsesim cluster", flag.ContinueOnError)
	var (
		nodes    = fs.Int("nodes", 8, "node count")
		ullNodes = fs.Int("ull-nodes", 2, "nodes (from the front) with reserved uLL slots")
		ullSlots = fs.Int("ull-slots", 2, "reserved uLL slots per uLL node")
		vcpus    = fs.Int("vcpus", 1, "vCPUs per sandbox")
		memoryMB = fs.Int("memory", 128, "sandbox memory (MB)")
		pool     = fs.Int("pool", 4, "pooled sandboxes per function cluster-wide (0 = none)")
		policy   = fs.String("policy", "ull-affinity", "placement policy: "+strings.Join(horse.PlacementPolicies(), "|"))
		arrivals = fs.String("arrivals", "scan=poisson:rate=1000/s,mode=horse",
			"workload list, e.g. scan=poisson:rate=2000/s;thumbnail=onoff:on=10ms,off=90ms,rate=500/s,mode=warm")
		horizon = fs.Duration("horizon", 200*time.Millisecond, "virtual span to generate arrivals over")
		seed    = fs.Int64("seed", 1, "seed for the arrival PRNG streams and the fault injector")
		shards  = fs.Int("shards", 1, "shards for the parallel serve phase (clamped to [1, nodes]; the report is byte-identical at every value)")
		faults  = fs.String("faults", "", "fault-injection spec, e.g. cluster.node.fail:nth=20,resume:rate=0.05")
		tenants = fs.String("tenants", "",
			"tenant contracts, e.g. steady:weight=4,slots=3;greedy:weight=1,rate=2500/s,burst=50 (workloads opt in via tenant=name)")
		ullAdmit = fs.Float64("ull-admit-rate", 0,
			"aggregate uLL admissions per second divided between tenants by weight (0 = fair-share gate off)")
		preset = fs.String("preset", "",
			"named scenario filling -arrivals/-tenants/-ull-admit-rate unless set explicitly: "+strings.Join(presetNames(), "|"))
		format   = fs.String("format", "csv", "report format: csv|json")
		traceOut = fs.String("trace-out", "", "write retained trigger span trees (SLO violators + worst-K) as Perfetto JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *preset != "" {
		p, ok := horse.LookupLoadPreset(*preset)
		if !ok {
			return fmt.Errorf("unknown preset %q (want %s)", *preset, strings.Join(presetNames(), ", "))
		}
		// Explicitly set flags win over the preset's values.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["arrivals"] {
			*arrivals = p.Arrivals
		}
		if !set["tenants"] {
			*tenants = p.Tenants
		}
		if !set["ull-admit-rate"] {
			*ullAdmit = p.ULLAdmitRate
		}
	}
	if *nodes < 1 {
		return fmt.Errorf("need at least one node")
	}
	if *ullNodes < 0 || *ullNodes > *nodes {
		return fmt.Errorf("-ull-nodes %d must be in [0, -nodes]", *ullNodes)
	}
	if *pool < 0 || *ullSlots < 0 {
		return fmt.Errorf("-pool %d and -ull-slots %d must be >= 0", *pool, *ullSlots)
	}
	if *format != "csv" && *format != "json" {
		return fmt.Errorf("unknown format %q (want csv or json)", *format)
	}

	workloads, err := horse.ParseWorkloads(*arrivals)
	if err != nil {
		return err
	}
	injector, err := horse.FaultInjectorFromSpec(*seed, *faults)
	if err != nil {
		return err
	}
	var tenantSpecs []horse.TenantSpec
	if *tenants != "" {
		if tenantSpecs, err = horse.ParseTenants(*tenants); err != nil {
			return err
		}
	}
	specs := make([]horse.ClusterNodeSpec, *nodes)
	for i := range specs {
		if i < *ullNodes {
			specs[i].ULLSlots = *ullSlots
		}
	}
	c, err := horse.NewCluster(horse.ClusterOptions{
		Specs:        specs,
		Policy:       *policy,
		Seed:         *seed,
		Faults:       injector,
		Fallback:     horse.FallbackConfig{Enabled: true},
		Shards:       *shards,
		Tenants:      tenantSpecs,
		ULLAdmitRate: *ullAdmit,
	})
	if err != nil {
		return err
	}

	payloads := make(map[string][]byte, len(workloads))
	for _, wl := range workloads {
		fn, payload, err := pickFunction(wl.Function)
		if err != nil {
			return err
		}
		if err := c.RegisterEverywhere(fn, horse.SandboxSpec{VCPUs: *vcpus, MemoryMB: *memoryMB}); err != nil {
			return err
		}
		// Bind before provisioning so the tenant's slot and memory
		// clamps govern the pools from the first ScaleCluster.
		if err := c.BindTenant(wl.Function, wl.Tenant); err != nil {
			return err
		}
		payloads[wl.Function] = payload
		if err := provisionPools(c, wl, *pool); err != nil {
			return err
		}
	}

	report, err := c.Run(horse.ClusterRunConfig{
		Workloads: workloads,
		Horizon:   horse.Duration(*horizon),
		Payloads:  payloads,
	})
	if err != nil {
		return err
	}
	if *traceOut != "" {
		if err := writeTraceFile(*traceOut, c); err != nil {
			return err
		}
	}
	if *format == "json" {
		return report.WriteJSON(w)
	}
	return report.WriteCSV(w)
}

// presetNames lists the named scenario presets for flag usage text.
func presetNames() []string {
	ps := horse.LoadPresets()
	names := make([]string, 0, len(ps))
	for _, p := range ps {
		names = append(names, p.Name)
	}
	return names
}

// writeTraceFile dumps the flight recorder's retained span trees (every
// SLO-violating trigger plus the worst-K by end-to-end latency) as a
// Perfetto trace file. Same seed, same flags ⇒ byte-identical file.
func writeTraceFile(path string, c *horse.Cluster) error {
	rec := c.Trace()
	if rec == nil {
		return fmt.Errorf("no trace recorder armed; run the cluster before dumping traces")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := horse.WriteTriggerPerfetto(f, rec.Traces()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// provisionPools scales one pool per pool-backed start mode in the
// workload's mix: horse arrivals draw from HORSE pools (confined to uLL
// nodes), warm arrivals from vanilla pools. Cold and restore arrivals
// need no pool. The mix is walked in clause order so provisioning is
// deterministic.
func provisionPools(c *horse.Cluster, wl horse.LoadWorkload, pool int) error {
	if pool < 1 {
		return nil
	}
	done := map[horse.Policy]bool{}
	for _, share := range wl.Mix {
		var policy horse.Policy
		switch share.Mode {
		case horse.ModeHorse:
			policy = horse.PolicyHorse
		case horse.ModeWarm:
			policy = horse.PolicyVanilla
		default:
			continue
		}
		if done[policy] {
			continue
		}
		done[policy] = true
		if _, err := c.ScaleCluster(wl.Function, pool, policy); err != nil {
			return fmt.Errorf("provisioning %s %s pool: %w", wl.Function, policy, err)
		}
	}
	return nil
}
