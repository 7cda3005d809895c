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
// a live /metrics endpoint while the run executes.
func traceCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	experiment := fs.String("experiment", "fig3", "experiment to trace: fig2|fig3|replay")
	out := fs.String("out", "horse", "output file prefix (<out>.trace.json, <out>.metrics.json, <out>.prom)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics on this address during the run (e.g. :8080 or 127.0.0.1:0)")
	hold := fs.Duration("hold", 0, "keep the /metrics endpoint up this long after the run")
	spanBuffer := fs.Int("span-buffer", 16384, "span ring-buffer capacity")
	invocations := fs.Int("n", 200, "replay experiment: number of trigger arrivals")
	faults := fs.String("faults", "", "replay experiment: fault-injection spec, e.g. resume:rate=0.05,invoke:nth=7")
	faultSeed := fs.Int64("fault-seed", 1, "replay experiment: fault injector seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spanBuffer < 1 {
		return fmt.Errorf("trace: -span-buffer %d must be >= 1", *spanBuffer)
	}

	tracer := horse.NewTracer(horse.TracerOptions{Capacity: *spanBuffer})
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

	var runErr error
	switch *experiment {
	case "fig2":
		_, runErr = horse.RunFig2Traced(nil, horse.ExperimentTelemetry{Tracer: tracer, Metrics: registry})
	case "fig3":
		_, runErr = horse.RunFig3Traced(nil, horse.ExperimentTelemetry{Tracer: tracer, Metrics: registry})
	case "replay":
		runErr = tracedReplay(w, tracer, registry, *invocations, *faults, *faultSeed)
	default:
		return fmt.Errorf("trace: unknown experiment %q (want fig2|fig3|replay)", *experiment)
	}
	if runErr != nil {
		return runErr
	}

	spans := tracer.Spans()
	tracePath := *out + ".trace.json"
	if err := writeFileWith(tracePath, func(f io.Writer) error {
		return horse.WritePerfettoTrace(f, spans)
	}); err != nil {
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

	fmt.Fprintf(w, "experiment %s: %d spans recorded (%d dropped)\n",
		*experiment, len(spans), tracer.Dropped())
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
// mode with telemetry attached, so invocation spans nest resume spans.
// A non-empty fault spec arms the injector and enables the fallback
// chain, so the exported metrics include the degradation counters.
func tracedReplay(w io.Writer, tracer *horse.Tracer, registry *horse.MetricsRegistry, n int, faults string, faultSeed int64) error {
	if n < 1 {
		return fmt.Errorf("trace: replay needs at least 1 invocation, got %d", n)
	}
	injector, err := horse.FaultInjectorFromSpec(faultSeed, faults)
	if err != nil {
		return err
	}
	p, err := horse.NewPlatformWith(horse.PlatformOptions{
		Tracer:   tracer,
		Metrics:  registry,
		Faults:   injector,
		Fallback: horse.FallbackConfig{Enabled: injector != nil},
	})
	if err != nil {
		return err
	}
	fn := horse.NewScanFunction(42)
	if _, err := p.Register(fn, horse.SandboxSpec{VCPUs: 2, MemoryMB: 512}); err != nil {
		return err
	}
	if err := p.Provision(fn.Name(), 1, horse.PolicyHorse); err != nil {
		return err
	}
	payload, err := json.Marshal(horse.ScanRequest{Threshold: 512})
	if err != nil {
		return err
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
		return err
	}
	if len(report.Failures) > 0 {
		fmt.Fprintf(w, "replay: %d/%d triggers failed under fault spec %q\n",
			len(report.Failures), n, faults)
	}
	return nil
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
