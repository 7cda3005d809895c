// Command perfbench is the simulator's benchmark. It runs one workload
// for a fixed host-time budget, checks that every run reproduces the
// deterministic virtual-time result, and prints host-time metrics:
// end-to-end metrics with tracing off (-trace 0), or per-layer metrics
// from a separate traced run (-trace 1). The last line of standard
// output is the result as one JSON object.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload scan-flood --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the
// metrics it prints in each mode. End-to-end metrics are measured with
// tracing off, per-layer ones in a separate traced run.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// specFile is BENCHMARK.json, relative to the repository root the
// benchmark runs from.
const specFile = "BENCHMARK.json"

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// expected pins each workload's report at the default seed.
//
//go:embed expect.json
var expectedJSON []byte

type expectation struct {
	Seed   int64             `json:"seed"`
	SHA256 map[string]string `json:"sha256"`
}

// minUnits is the fewest units a measurement takes, whatever its time
// budget; setupSamples how many batched set-up timings setup_s is the
// median of.
const (
	minUnits     = 3
	setupSamples = 15
)

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: scan-flood, tenant-storm, or paper-repro")
		seed    = fs.Int64("seed", 1, "seed the workload's inputs derive from")
		seconds = fs.Float64("seconds", 10, "host seconds to measure for")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := lookupBench(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	var exp expectation
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return fmt.Errorf("expect.json: %w", err)
	}
	spec, err := readSpec(specFile)
	if err != nil {
		return err
	}
	host := readHostFacts()
	hostLine, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", hostLine)

	// The first unit runs at the default seed, unmeasured: it lets caches
	// fill and lazy set-up finish, and pins the virtual-time result.
	warm, err := b.unit(exp.Seed, nil)
	if err != nil {
		return fmt.Errorf("%s at seed %d: %w", b.name, exp.Seed, err)
	}
	sum := sha256.Sum256(warm.report)
	if got, want := hex.EncodeToString(sum[:]), exp.SHA256[b.name]; got != want {
		return fmt.Errorf("%s report at seed %d has sha256 %s, want %s: the virtual-time result moved", b.name, exp.Seed, got, want)
	}

	var (
		vals      map[string]float64
		defs      []metricDef
		attempted int
	)
	budget := time.Duration(*seconds * float64(time.Second))
	if *trace == 0 {
		vals, attempted, err = measureEndToEnd(b, *seed, budget)
		defs = spec.EndToEnd
	} else {
		vals, attempted, err = measureLayers(b, *seed, budget)
		vals["host.cpus"] = float64(host.CPUs)
		vals["host.gomaxprocs"] = float64(host.GOMAXPROCS)
		defs = spec.PerLayer
	}
	if err != nil {
		return fmt.Errorf("%s at seed %d: %w", b.name, *seed, err)
	}
	res := result{Correct: true, Attempted: attempted, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && *trace == 0 {
			return fmt.Errorf("%s lists end-to-end metric %s, which the program does not measure", specFile, d.Name)
		}
		// A per-layer metric the workload does not exercise reads 0.
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-34s %16.6g %s\n", d.Name, v, d.Unit)
	}
	for name := range vals {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("the program measures %s, which %s does not list", name, specFile)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// profiler watches the traced units, each from just after the
// collection forced before it until its result is in: a CPU profile per
// unit, and the runtime's GC account summed over units.
type profiler struct {
	buf      bytes.Buffer
	profiles [][]byte
	gc0, gc  gcStats
}

func (p *profiler) start() error {
	p.buf.Reset()
	p.gc0 = readGC()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() {
	pprof.StopCPUProfile()
	p.gc = p.gc.plus(readGC().minus(p.gc0))
	p.profiles = append(p.profiles, bytes.Clone(p.buf.Bytes()))
}

// runUnits runs units at seed until budget has passed and at least min
// have run, checking that every report is byte-identical to want (the
// first unit's when want is nil). Each unit starts on a freshly
// collected heap. When prof is non-nil, each unit is traced with a
// fresh tracer, the last of which is returned, and profiled. When
// calibrate is set, each unit is followed by a b.ref timing, kept in
// its sample.
func runUnits(b bench, seed int64, budget time.Duration, min int, want []byte, prof *profiler, calibrate bool) ([]sample, *tracer, error) {
	var (
		samples []sample
		tr      *tracer
	)
	start := time.Now()
	for len(samples) < min || time.Since(start) < budget {
		runtime.GC()
		if prof != nil {
			tr = newTracer()
			if err := prof.start(); err != nil {
				return nil, nil, err
			}
		}
		s, err := b.unit(seed, tr)
		if prof != nil {
			prof.stop()
		}
		if err != nil {
			return nil, nil, err
		}
		if want == nil {
			want = s.report
		}
		if !bytes.Equal(s.report, want) {
			return nil, nil, fmt.Errorf("unit %d report differs from the first at the same seed", len(samples))
		}
		if calibrate {
			s.ref = b.ref.time()
		}
		samples = append(samples, s)
		fmt.Fprintf(os.Stderr, "unit %d: %.3f s, reference %.4f s\n", len(samples), s.phase.wallS, s.ref)
	}
	return samples, tr, nil
}

func medianOf(samples []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return median(xs)
}

// measureEndToEnd runs untraced units for the budget and reports each
// end-to-end metric as the median over units. Each timing is rescaled
// by the reference timed beside it (calib.go).
func measureEndToEnd(b bench, seed int64, budget time.Duration) (map[string]float64, int, error) {
	// Warm-up: grows the heap the kernels need.
	b.ref.time()
	setupRef.time()
	samples, _, err := runUnits(b, seed, budget, minUnits, nil, nil, true)
	if err != nil {
		return nil, 0, err
	}
	setups := make([]float64, 0, setupSamples)
	for len(setups) < setupSamples {
		t, err := b.setupSample(seed)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, t)
	}
	return map[string]float64{
		"sim_triggers_per_s": medianOf(samples, func(s sample) float64 { return s.triggers / (s.runS * scale(s.ref)) }),
		"wall_s":             medianOf(samples, func(s sample) float64 { return s.phase.wallS * scale(s.ref) }),
		"cpu_s":              medianOf(samples, func(s sample) float64 { return s.phase.cpuS * scale(s.ref) }),
		"setup_s":            median(setups),
		"peak_rss_mb":        peakRSSMB(),
		"alloc_mb":           medianOf(samples, func(s sample) float64 { return s.phase.allocB / (1 << 20) }),
		"served_frac":        medianOf(samples, func(s sample) float64 { return s.servedFrac }),
	}, len(samples), nil
}

// refGauges is how many setupRef timings host.ref_ms is the median of.
const refGauges = 5

// measureLayers spends half the budget on untraced units and half on
// traced ones, whose reports must match the untraced report byte for
// byte. It reports span medians, the last traced unit's telemetry
// counts, CPU-profile shares over the traced units, the arrival
// generator's price, the reference kernel's time as a gauge of host
// speed, and (on scan-flood) the isolated trigger ledger. Per-layer
// times are plain host time, never rescaled.
func measureLayers(b bench, seed int64, budget time.Duration) (map[string]float64, int, error) {
	plain, _, err := runUnits(b, seed, budget/2, 2, nil, nil, false)
	if err != nil {
		return nil, 0, err
	}

	var prof profiler
	heap := startHeapSampler()
	traced, tr, err := runUnits(b, seed, budget/2, 2, plain[0].report, &prof, false)
	heapPeak := heap.stop()
	if err != nil {
		return nil, 0, fmt.Errorf("traced run: %w", err)
	}

	out := tr.counts()
	for name := range traced[0].spans {
		out[name] = medianOf(traced, func(s sample) float64 { return s.spans[name] })
	}
	shares, err := cpuShares(prof.profiles...)
	if err != nil {
		return nil, 0, err
	}
	for bucket, share := range shares {
		out["cpu."+bucket] = share
	}
	out["gc.cycles"] = float64(prof.gc.cycles) / float64(len(traced))
	if prof.gc.usedCPU > 0 {
		out["gc.cpu_frac"] = prof.gc.gcCPU / prof.gc.usedCPU
	}
	out["heap.peak_mb"] = heapPeak
	wall := func(s sample) float64 { return s.phase.wallS }
	out["trace_overhead_frac"] = medianOf(traced, wall)/medianOf(plain, wall) - 1
	refs := make([]float64, refGauges)
	for i := range refs {
		refs[i] = setupRef.time()
	}
	out["host.ref_ms"] = median(refs) * 1e3

	if b.cluster != nil {
		last := traced[len(traced)-1]
		if calls := tr.invokes.Load(); calls > 0 {
			out["workload.invoke_ns_per_call"] = float64(tr.invokeNs.Load()) / float64(calls)
			out["workload.invoke_share"] = float64(tr.invokeNs.Load()) / (last.spans["cluster.run_cpu_s"] * 1e9)
		}
		out["eventsim.parallelism"] = out["cluster.run_cpu_s"] / out["cluster.run_s"]
		if out["loadgen.collect_ns_per_arrival"], err = b.cluster.collectNsPerArrival(seed); err != nil {
			return nil, 0, err
		}
	}
	if b.name == "scan-flood" {
		ledger, err := runLedger()
		if err != nil {
			return nil, 0, err
		}
		for k, v := range ledger {
			out[k] = v
		}
	}
	return out, len(plain) + len(traced), nil
}
