// Command horsesim drives the simulated FaaS platform from the command
// line: it deploys one of the paper's workloads, fires a batch of
// triggers under a chosen start mode, and reports the initialization and
// execution statistics.
//
// Example:
//
//	horsesim -function scan -mode horse -triggers 1000 -vcpus 4
//
// The cluster subcommand scales the same platform out to a
// deterministic multi-node deployment under open-loop load (DESIGN.md
// §11):
//
//	horsesim cluster -nodes 8 -policy ull-affinity -seed 42
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	horse "github.com/horse-faas/horse"
	"github.com/horse-faas/horse/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "horsesim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) > 0 && args[0] == "cluster" {
		return runCluster(args[1:], w)
	}
	fs := flag.NewFlagSet("horsesim", flag.ContinueOnError)
	var (
		fnName    = fs.String("function", "scan", "workload: firewall|nat|scan|thumbnail")
		modeName  = fs.String("mode", "horse", "start mode: cold|restore|warm|horse")
		triggers  = fs.Int("triggers", 100, "number of triggers to fire")
		vcpus     = fs.Int("vcpus", 1, "vCPUs per sandbox")
		memoryMB  = fs.Int("memory", 512, "sandbox memory (MB)")
		pool      = fs.Int("pool", 1, "provisioned warm sandboxes (warm/horse modes)")
		tracePath = fs.String("replay", "", "replay arrivals from an Azure-style trace CSV instead of firing -triggers back to back")
		seed      = fs.Int64("seed", 1, "seed for trace arrival jitter")
		faults    = fs.String("faults", "", "fault-injection spec, e.g. resume:rate=0.05,pause:nth=3,invoke:every=100")
		faultSeed = fs.Int64("fault-seed", 1, "seed for the fault injector's per-site draws")
		fallback  = fs.Bool("fallback", false, "degrade failed triggers along horse>warm>restore>cold with contention retries")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *triggers < 1 {
		return fmt.Errorf("need at least one trigger")
	}

	fn, payload, err := pickFunction(*fnName)
	if err != nil {
		return err
	}
	mode, err := pickMode(*modeName)
	if err != nil {
		return err
	}
	injector, err := horse.FaultInjectorFromSpec(*faultSeed, *faults)
	if err != nil {
		return err
	}

	p, err := horse.NewPlatformWith(horse.PlatformOptions{
		Faults:   injector,
		Fallback: horse.FallbackConfig{Enabled: *fallback},
	})
	if err != nil {
		return err
	}
	if _, err := p.Register(fn, horse.SandboxSpec{VCPUs: *vcpus, MemoryMB: *memoryMB}); err != nil {
		return err
	}
	switch mode {
	case horse.ModeWarm:
		if err := p.Provision(fn.Name(), *pool, horse.PolicyVanilla); err != nil {
			return err
		}
	case horse.ModeHorse:
		if err := p.Provision(fn.Name(), *pool, horse.PolicyHorse); err != nil {
			return err
		}
	}

	if *tracePath != "" {
		return replayTrace(w, p, fn, mode, payload, *tracePath, *seed)
	}

	inits := metrics.NewSeries()
	execs := metrics.NewSeries()
	failed := 0
	for i := 0; i < *triggers; i++ {
		inv, err := p.Trigger(fn.Name(), mode, payload)
		if err != nil {
			if injector == nil {
				return fmt.Errorf("trigger %d: %w", i, err)
			}
			// Under fault injection a failed trigger is a data point, not
			// a reason to abort the run.
			failed++
			continue
		}
		inits.Record(inv.Init)
		execs.Record(inv.Exec)
	}
	if failed == *triggers {
		return fmt.Errorf("all %d triggers failed under fault spec %q", failed, *faults)
	}
	if failed > 0 {
		fmt.Fprintf(w, "%d/%d triggers failed under fault spec %q\n", failed, *triggers, *faults)
	}

	initSum, err := inits.Summarize()
	if err != nil {
		return err
	}
	execSum, err := execs.Summarize()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "function=%s mode=%s triggers=%d vcpus=%d\n", fn.Name(), mode, *triggers, *vcpus)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tmean\tmin\tp50\tp99\tmax")
	fmt.Fprintf(tw, "init\t%v\t%v\t%v\t%v\t%v\n", initSum.Mean, initSum.Min, initSum.P50, initSum.P99, initSum.Max)
	fmt.Fprintf(tw, "exec\t%v\t%v\t%v\t%v\t%v\n", execSum.Mean, execSum.Min, execSum.P50, execSum.P99, execSum.Max)
	if err := tw.Flush(); err != nil {
		return err
	}
	meanPct := 100 * float64(initSum.Mean) / float64(initSum.Mean+execSum.Mean)
	fmt.Fprintf(w, "mean init share of pipeline: %.2f%%\n", meanPct)
	return nil
}

// replayTrace fires the trace's arrivals at the deployed function — the
// trace's own function names are remapped onto the single deployment.
func replayTrace(w io.Writer, p *horse.Platform, fn horse.Function, mode horse.StartMode, payload []byte, path string, seed int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := horse.ParseTrace(f)
	if err != nil {
		return err
	}
	arrivals := horse.TraceArrivals(tr, seed)
	for i := range arrivals {
		arrivals[i].Function = fn.Name()
	}
	report, err := p.Replay(arrivals, mode, func(string) ([]byte, error) { return payload, nil })
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replayed %d invocations (%d skipped, %d failed) from %s under mode=%v\n",
		report.Invocations, report.Skipped, len(report.Failures), path, mode)
	if report.Invocations == 0 {
		fmt.Fprintln(w, "every trigger failed; no timing summaries")
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tmean\tp50\tp99\tmax")
	fmt.Fprintf(tw, "init\t%v\t%v\t%v\t%v\n", report.Init.Mean, report.Init.P50, report.Init.P99, report.Init.Max)
	fmt.Fprintf(tw, "exec\t%v\t%v\t%v\t%v\n", report.Exec.Mean, report.Exec.P50, report.Exec.P99, report.Exec.Max)
	fmt.Fprintf(tw, "latency\t%v\t%v\t%v\t%v\n", report.Latency.Mean, report.Latency.P50, report.Latency.P99, report.Latency.Max)
	return tw.Flush()
}

func pickFunction(name string) (horse.Function, []byte, error) {
	switch name {
	case "firewall":
		payload, err := json.Marshal(horse.FirewallRequest{SrcIP: "10.1.2.3", DstPort: 443})
		return horse.NewFirewallFunction(), payload, err
	case "nat":
		payload, err := json.Marshal(horse.NATPacket{DstIP: "203.0.113.10", DstPort: 80})
		return horse.NewNATFunction(), payload, err
	case "scan":
		payload, err := json.Marshal(horse.ScanRequest{Threshold: 5000})
		return horse.NewScanFunction(42), payload, err
	case "thumbnail":
		payload, err := json.Marshal(horse.ThumbnailRequest{
			Object: "photos/example.jpg", Width: 256, Height: 256, Edge: 64,
		})
		return horse.NewThumbnailFunction(), payload, err
	default:
		return nil, nil, fmt.Errorf("unknown function %q", name)
	}
}

func pickMode(name string) (horse.StartMode, error) {
	switch name {
	case "cold":
		return horse.ModeCold, nil
	case "restore":
		return horse.ModeRestore, nil
	case "warm":
		return horse.ModeWarm, nil
	case "horse":
		return horse.ModeHorse, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", name)
	}
}
