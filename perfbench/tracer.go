package main

import (
	"sync/atomic"
	"time"

	"github.com/horse-faas/horse/internal/telemetry"
	"github.com/horse-faas/horse/internal/workload"
)

// tracer is the instrumentation of one traced unit: the metrics
// registry the program's telemetry counts into, and the timer every
// function body runs under. A nil *tracer is tracing off.
type tracer struct {
	reg      *telemetry.Registry
	invokeNs atomic.Int64
	invokes  atomic.Int64
}

func newTracer() *tracer { return &tracer{reg: telemetry.NewRegistry()} }

func (t *tracer) registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// wrap returns fn with its Invoke timed; Name, Category, and
// VirtualDuration delegate, so the simulation is unchanged.
func (t *tracer) wrap(fn workload.Function) workload.Function {
	if t == nil {
		return fn
	}
	return timedFunction{Function: fn, t: t}
}

type timedFunction struct {
	workload.Function
	t *tracer
}

func (f timedFunction) Invoke(payload []byte) ([]byte, error) {
	start := time.Now()
	out, err := f.Function.Invoke(payload)
	f.t.invokeNs.Add(int64(time.Since(start)))
	f.t.invokes.Add(1)
	return out, err
}

// counts reads the program's telemetry counters after a traced unit.
func (t *tracer) counts() map[string]float64 {
	snap := t.reg.Snapshot()
	// total sums every instrument of a counter family, across labels.
	total := func(family string) float64 {
		var sum uint64
		for name, v := range snap.Counters {
			if telemetry.Family(name) == family {
				sum += v
			}
		}
		return float64(sum)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits, misses := total("faas_warm_pool_hits_total"), total("faas_warm_pool_misses_total")
	admitted, rejected := total("tenant_admitted_total"), total("tenant_rejected_total")
	return map[string]float64{
		"faas.triggers":         total("faas_triggers_total"),
		"faas.pool_hit_ratio":   ratio(hits, hits+misses),
		"faas.fallbacks":        total("faas_fallbacks_total"),
		"faas.retries":          total("faas_retries_total"),
		"faas.trigger_failures": total("faas_trigger_failures_total"),
		"cluster.failovers":     total("cluster_failovers_total"),
		"tenant.admit_ratio":    ratio(admitted, admitted+rejected),
		"vmm.pauses":            total("vmm_pauses_total"),
		"vmm.resumes":           total("vmm_resumes_total"),
		"vmm.resume_lock_waits": total("vmm_resume_lock_waits_total"),
		"horse.splice_ops":      total("horse_splice_ops_total"),
		"trigtrace.retained":    total("trigtrace_retained_total"),
	}
}
