package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/eventsim"
	"github.com/horse-faas/horse/internal/metrics"
	"github.com/horse-faas/horse/internal/sched"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/trace"
	"github.com/horse-faas/horse/internal/workload"
)

// ColocationConfig shapes the §5.4 experiment: thumbnail invocations
// arriving per an Azure-style trace chunk, colocated with periodic uLL
// sandbox resumes.
type ColocationConfig struct {
	// ULLVCPUs is the vCPU count of the resumed uLL sandboxes (the paper
	// sweeps 1..36; the 99th-percentile effect peaks at 36).
	ULLVCPUs int
	// CPUs is the number of worker cores (default 36).
	CPUs int
	// Window is the replayed trace chunk length (default 30 s, §5.4).
	Window simtime.Duration
	// Seed drives the trace and service-time generators.
	Seed int64
}

// The §5.4 workload's fixed shape.
const (
	// colocationULLPerSecond is the uLL resume rate (§5.4).
	colocationULLPerSecond = 10
	// colocationServiceSigma is the log-normal sigma of thumbnail service
	// times, whose mean is workload.ThumbnailDuration ≈ 2.8 s, so a
	// 30 µs tail inflation is the paper's 0.00107%.
	colocationServiceSigma float64 = 0.2
	// colocationArrivalsPerSecond is the mean thumbnail trigger rate,
	// tuned so the cores saturate only at trace bursts: the experiment
	// is designed so both workloads "theoretically have enough available
	// cores", §5.4.
	colocationArrivalsPerSecond = 8.5
)

func (c *ColocationConfig) applyDefaults() {
	if c.ULLVCPUs == 0 {
		c.ULLVCPUs = 36
	}
	if c.CPUs == 0 {
		c.CPUs = 36
	}
	if c.Window == 0 {
		c.Window = 30 * simtime.Second
	}
}

// ColocationResult is the thumbnail latency distribution under one policy.
type ColocationResult struct {
	Policy      core.Policy
	Latency     metrics.Summary
	Preemptions uint64
	MergeBursts int
}

// ColocationComparison pairs the vanilla and HORSE runs of the same
// workload (identical arrivals and service times).
type ColocationComparison struct {
	VCPUs   int
	Vanilla ColocationResult
	Horse   ColocationResult
}

// P99InflationPct returns the HORSE-induced 99th-percentile increase in
// percent — the paper reports up to 0.00107% (≈30 µs) at 36 vCPUs.
func (c ColocationComparison) P99InflationPct() float64 {
	if c.Vanilla.Latency.P99 == 0 {
		return 0
	}
	return 100 * float64(c.Horse.Latency.P99-c.Vanilla.Latency.P99) / float64(c.Vanilla.Latency.P99)
}

// invocation is one pre-drawn thumbnail trigger, shared verbatim by both
// policy runs so the comparison isolates HORSE's effect.
type invocation struct {
	at      simtime.Time
	service simtime.Duration
}

// RunColocationSweep repeats the §5.4 comparison across uLL sandbox
// sizes ("we repeat the experiment by varying the number of vCPUs of the
// uLL workloads sandboxes from 1 to 36"). A nil sweep selects the default
// vCPU range.
func RunColocationSweep(cfg ColocationConfig, vcpuCounts []int) ([]ColocationComparison, error) {
	if len(vcpuCounts) == 0 {
		vcpuCounts = DefaultVCPUSweep()
	}
	out := make([]ColocationComparison, 0, len(vcpuCounts))
	for _, n := range vcpuCounts {
		c := cfg
		c.ULLVCPUs = n
		cmp, err := RunColocation(c)
		if err != nil {
			return nil, fmt.Errorf("experiments: colocation sweep vcpus=%d: %w", n, err)
		}
		out = append(out, cmp)
	}
	return out, nil
}

// RunColocation replays the same trace chunk under the vanilla and HORSE
// policies and returns the paired results.
func RunColocation(cfg ColocationConfig) (ColocationComparison, error) {
	cfg.applyDefaults()
	work := drawInvocations(cfg)
	vanil, err := colocationRun(cfg, core.Vanilla, work)
	if err != nil {
		return ColocationComparison{}, err
	}
	horse, err := colocationRun(cfg, core.Horse, work)
	if err != nil {
		return ColocationComparison{}, err
	}
	return ColocationComparison{VCPUs: cfg.ULLVCPUs, Vanilla: vanil, Horse: horse}, nil
}

// drawInvocations derives the thumbnail arrivals from a synthetic
// Azure-style trace and draws their service times, deterministically.
func drawInvocations(cfg ColocationConfig) []invocation {
	// Spread the target rate over a handful of function rows, as the
	// Azure chunk does, and take the experiment window.
	const functions = 5
	const perMinute = colocationArrivalsPerSecond * 60 / functions
	tr := trace.Synthesize(trace.SynthConfig{
		Functions:     functions,
		Minutes:       int(cfg.Window/(60*simtime.Second)) + 1,
		MeanPerMinute: perMinute,
		Burstiness:    0.4,
		Seed:          cfg.Seed,
	})
	arrivals := trace.Window(tr.Arrivals(cfg.Seed+1), 0, cfg.Window)

	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	mu := math.Log(float64(workload.ThumbnailDuration)) - colocationServiceSigma*colocationServiceSigma/2
	out := make([]invocation, 0, len(arrivals))
	for _, a := range arrivals {
		service := simtime.Duration(math.Exp(mu + colocationServiceSigma*rng.NormFloat64()))
		out = append(out, invocation{at: a.At, service: service})
	}
	return out
}

// colocationRun replays one policy: thumbnails on the worker cores, plus
// (under HORSE) a merge burst per uLL resume, 10 per second.
func colocationRun(cfg ColocationConfig, policy core.Policy, work []invocation) (ColocationResult, error) {
	eng := eventsim.New(nil)
	s, err := sched.New(eng, sched.Options{CPUs: cfg.CPUs})
	if err != nil {
		return ColocationResult{}, err
	}
	latencies := metrics.NewSeries()

	for i, inv := range work {
		inv := inv
		if _, err := eng.Schedule(inv.at, func(simtime.Time) {
			task := &sched.Task{
				ID:       fmt.Sprintf("thumb%d", i),
				Duration: inv.service,
				OnDone: func(submitted, end simtime.Time) {
					latencies.Record(end.Sub(submitted))
				},
			}
			if err := s.Submit(task); err != nil {
				panic(err)
			}
		}); err != nil {
			return ColocationResult{}, err
		}
	}

	bursts := 0
	if policy == core.Horse {
		// One uLL resume every 1/rate seconds; each spawns a same-core
		// burst of merge threads, one per vCPU, at the highest priority
		// (paper §4.1.3). The vanilla resume path runs inside the
		// hypervisor without high-priority helper threads, so it does
		// not perturb the worker cores.
		const interval = simtime.Second / colocationULLPerSecond
		costs := mergeBurstCosts(cfg.ULLVCPUs)
		for at := simtime.Time(interval); at < simtime.Time(cfg.Window); at = at.Add(interval) {
			at := at
			bursts++
			if _, err := eng.Schedule(at, func(simtime.Time) {
				if err := s.SubmitPreemptingPinned(&sched.Task{
					ID:           fmt.Sprintf("merge@%v", at),
					Priority:     sched.PriorityMerge,
					Duration:     costs.duration,
					ExtraPenalty: costs.extraPenalty,
				}); err != nil {
					panic(err)
				}
			}); err != nil {
				return ColocationResult{}, err
			}
		}
	}

	if err := eng.Run(0); err != nil {
		return ColocationResult{}, err
	}
	summary, err := latencies.Summarize()
	if err != nil {
		return ColocationResult{}, fmt.Errorf("experiments: colocation produced no samples: %w", err)
	}
	return ColocationResult{
		Policy:      policy,
		Latency:     summary,
		Preemptions: s.Stats().Preemptions,
		MergeBursts: bursts,
	}, nil
}

type burstCosts struct {
	duration     simtime.Duration
	extraPenalty simtime.Duration
}

// mergeBurstCosts sizes one resume's merge burst: n splice threads of
// ≈110 ns each, with a context switch per thread charged to the
// preempted function. At n=36 the victim loses ≈29 µs, the paper's
// extreme-case 99th-percentile inflation.
func mergeBurstCosts(n int) burstCosts {
	const spliceCost = 110 * simtime.Nanosecond
	const ctxSwitch = 700 * simtime.Nanosecond
	return burstCosts{
		duration:     simtime.Duration(n) * spliceCost,
		extraPenalty: simtime.Duration(n-1) * ctxSwitch,
	}
}
