package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	horse "github.com/horse-faas/horse"
)

// traceCmd runs an experiment with the telemetry layer attached and
// exports the results: a Chrome/Perfetto trace-event JSON file, a JSON
// metrics snapshot, and a Prometheus text exposition — plus, optionally,
// a live /metrics endpoint while the run executes. fig2 and fig3 lay
// each run's pause and resume reports out step by step; replay writes
// one trigger trace per arrival.
func traceCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	experiment := fs.String("experiment", "fig3", "experiment to trace: fig2|fig3|replay")
	out := fs.String("out", "horse", "output file prefix (<out>.trace.json, <out>.metrics.json, <out>.prom)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics on this address during the run (e.g. :8080 or 127.0.0.1:0)")
	hold := fs.Duration("hold", 0, "keep the /metrics endpoint up this long after the run")
	invocations := fs.Int("n", 200, "replay experiment: number of trigger arrivals")
	faults := fs.String("faults", "", "replay experiment: fault-injection spec, e.g. resume:rate=0.05,invoke:nth=7")
	faultSeed := fs.Int64("fault-seed", 1, "replay experiment: fault injector seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	registry := horse.NewMetricsRegistry()

	var srv *http.Server
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("trace: metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", horse.MetricsHandler(registry))
		srv = &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(w, "serving metrics on http://%s/metrics\n", ln.Addr())
	}

	var (
		writeTrace func(io.Writer) error
		recorded   string
	)
	switch *experiment {
	case "fig2", "fig3":
		policies := []horse.Policy{horse.PolicyVanilla}
		if *experiment == "fig3" {
			policies = horse.Fig3Policies()
		}
		runs, err := horse.RunResumeSweep(nil, policies, horse.ExperimentTelemetry{Metrics: registry})
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		writeTrace = func(f io.Writer) error { return horse.WriteStepTimeline(f, runs) }
		recorded = fmt.Sprintf("%d pause/resume runs", len(runs))
	case "replay":
		traces, err := tracedReplay(w, registry, *invocations, *faults, *faultSeed)
		if err != nil {
			return err
		}
		writeTrace = func(f io.Writer) error { return horse.WriteTriggerPerfetto(f, traces) }
		recorded = fmt.Sprintf("%d trigger traces", len(traces))
	default:
		return fmt.Errorf("trace: unknown experiment %q (want fig2|fig3|replay)", *experiment)
	}

	tracePath := *out + ".trace.json"
	if err := writeFileWith(tracePath, writeTrace); err != nil {
		return err
	}
	snap := registry.Snapshot()
	metricsPath := *out + ".metrics.json"
	if err := writeFileWith(metricsPath, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}); err != nil {
		return err
	}
	promPath := *out + ".prom"
	if err := writeFileWith(promPath, func(f io.Writer) error {
		return horse.WritePrometheusText(f, snap)
	}); err != nil {
		return err
	}

	fmt.Fprintf(w, "experiment %s: %s recorded\n", *experiment, recorded)
	fmt.Fprintf(w, "wrote %s (open at https://ui.perfetto.dev)\n", tracePath)
	fmt.Fprintf(w, "wrote %s\n", metricsPath)
	fmt.Fprintf(w, "wrote %s\n", promPath)

	if srv != nil && *hold > 0 {
		fmt.Fprintf(w, "holding /metrics endpoint for %v\n", *hold)
		time.Sleep(*hold)
	}
	return nil
}

// tracedReplay replays a synthetic scan-function arrival burst in HORSE
// mode with telemetry attached and returns every trigger's trace: the
// recorder's worst-K set is sized to n, so it keeps them all. A
// non-empty fault spec arms the injector and enables the fallback
// chain, so the exported metrics include the degradation counters.
func tracedReplay(w io.Writer, registry *horse.MetricsRegistry, n int, faults string, faultSeed int64) ([]*horse.TriggerTrace, error) {
	if n < 1 {
		return nil, fmt.Errorf("trace: replay needs at least 1 invocation, got %d", n)
	}
	injector, err := horse.FaultInjectorFromSpec(faultSeed, faults)
	if err != nil {
		return nil, err
	}
	rec := horse.NewTraceRecorder(horse.TraceRecorderOptions{Seed: faultSeed, WorstK: n})
	p, err := horse.NewPlatformWith(horse.PlatformOptions{
		Tracer:   rec,
		Metrics:  registry,
		Faults:   injector,
		Fallback: horse.FallbackConfig{Enabled: injector != nil},
	})
	if err != nil {
		return nil, err
	}
	fn := horse.NewScanFunction(42)
	if _, err := p.Register(fn, horse.SandboxSpec{VCPUs: 2, MemoryMB: 512}); err != nil {
		return nil, err
	}
	if err := p.Provision(fn.Name(), 1, horse.PolicyHorse); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(horse.ScanRequest{Threshold: 512})
	if err != nil {
		return nil, err
	}
	arrivals := make([]horse.Arrival, n)
	for i := range arrivals {
		arrivals[i] = horse.Arrival{
			At:       horse.Time(i) * horse.Time(10*horse.Microsecond),
			Function: fn.Name(),
		}
	}
	report, err := p.Replay(arrivals, horse.ModeHorse, func(string) ([]byte, error) {
		return payload, nil
	})
	if err != nil {
		return nil, err
	}
	if len(report.Failures) > 0 {
		fmt.Fprintf(w, "replay: %d/%d triggers failed under fault spec %q\n",
			len(report.Failures), n, faults)
	}
	return rec.Traces(), nil
}

func writeFileWith(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
