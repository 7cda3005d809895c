package faas

import (
	"errors"
	"fmt"

	"github.com/horse-faas/horse/internal/metrics"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/trace"
	"github.com/horse-faas/horse/internal/trigtrace"
)

// PayloadFunc supplies the trigger payload for a function named in a
// trace. Returning an error aborts the replay.
type PayloadFunc func(function string) ([]byte, error)

// TriggerFailure records one replay arrival whose trigger failed even
// after the platform's retry and fallback machinery.
type TriggerFailure struct {
	// Function is the arrival's function name.
	Function string
	// At is the arrival's offset from the replay start.
	At simtime.Duration
	// Mode is the start mode the trigger requested.
	Mode StartMode
	// Err is the final error's text, kept as a string so reports stay
	// comparable and serializable.
	Err string
}

// ReplayReport summarizes one trace replay.
type ReplayReport struct {
	// Mode is the start mode every trigger used.
	Mode StartMode
	// Invocations is the number of triggers that succeeded.
	Invocations int
	// Skipped counts arrivals for functions not registered on the
	// platform (real traces name thousands of functions; replays
	// typically deploy a few).
	Skipped int
	// Failures lists triggers that failed, in arrival order. A failed
	// trigger does not abort the replay — a fault-injected run records
	// the casualty and keeps going — and failed arrivals contribute
	// nothing to the timing summaries.
	Failures []TriggerFailure
	// Init, Exec and Latency summarize per-invocation timings; Latency
	// includes the queueing delay behind earlier triggers on the
	// platform's serial dispatch path.
	Init    metrics.Summary
	Exec    metrics.Summary
	Latency metrics.Summary
}

// ErrEmptyReplay is returned when no arrival matched a deployed function.
var ErrEmptyReplay = errors.New("faas: replay matched no deployed function")

// Replay fires the trace arrivals against the platform in virtual time,
// in arrival order, under one start mode. The platform's dispatch path is
// serial — a trigger that arrives while an earlier one still executes
// waits, and its measured latency includes that wait — which mirrors the
// paper's single-node trigger setup (§2: "we trigger the uLL workload on
// the same server node where it will run").
//
// Arrivals for unregistered functions are counted and skipped. For warm
// and HORSE modes the deployments must hold provisioned sandboxes;
// provision enough ahead of time.
//
// With Options.Tracer set, the replay claims the recorder for its run,
// as Cluster.Run does, and traces every arrival it fires under the
// arrival's index: a queue-wait stage for the time the serial
// dispatcher held it, then the trigger's own stages, so the serving
// stages sum to the trigger's latency (queue wait plus init and exec).
// A trigger that fails is traced as one failed-attempt span carrying
// its error.
func (p *Platform) Replay(arrivals []trace.Arrival, mode StartMode, payloads PayloadFunc) (ReplayReport, error) {
	if payloads == nil {
		return ReplayReport{}, errors.New("faas: nil payload function")
	}
	claim, err := p.rec.Claim()
	if err != nil {
		return ReplayReport{}, err
	}
	defer claim.Release()
	report := ReplayReport{Mode: mode}
	var (
		inits     = metrics.NewSeries()
		execs     = metrics.NewSeries()
		latencies = metrics.NewSeries()
	)
	base := p.clock.Now()
	for i, a := range arrivals {
		if _, err := p.Deployment(a.Function); err != nil {
			report.Skipped++
			continue
		}
		arrivalAt := base.Add(simtime.Duration(a.At))
		if p.clock.Now().Before(arrivalAt) {
			// The dispatcher is idle until this arrival.
			p.clock.AdvanceTo(arrivalAt)
		}
		payload, err := payloads(a.Function)
		if err != nil {
			return ReplayReport{}, fmt.Errorf("faas: replay payload for %q: %w", a.Function, err)
		}
		wait := p.clock.Now().Sub(arrivalAt)
		tc := claim.Start(uint64(i), a.Function, mode.String(), arrivalAt, 0)
		tc.RecordOn(trigtrace.StageQueueWait, arrivalAt, wait, "", "", "")
		inv, err := p.TriggerTraced(tc, nil, a.Function, mode, payload)
		if err != nil {
			failure := TriggerFailure{
				Function: a.Function,
				At:       simtime.Duration(a.At),
				Mode:     mode,
				Err:      err.Error(),
			}
			// A failed trigger served nothing: as a failed cluster hop,
			// its queue wait and attempts become one failed-attempt span.
			tc.CollapseFailed(0, arrivalAt, p.clock.Now().Sub(arrivalAt), "", mode.String(), failureSite(mode, err))
			tc.Complete(trigtrace.Outcome{Err: failure.Err})
			report.Failures = append(report.Failures, failure)
			continue
		}
		tc.Complete(trigtrace.Outcome{Served: inv.Mode.String(), Latency: wait + inv.Total()})
		report.Invocations++
		inits.Record(inv.Init)
		execs.Record(inv.Exec)
		latencies.Record(p.clock.Now().Sub(arrivalAt))
	}
	if report.Invocations == 0 {
		if len(report.Failures) > 0 {
			// Every trigger failed; the report still carries the full
			// casualty list and zero-valued summaries.
			return report, nil
		}
		return ReplayReport{}, ErrEmptyReplay
	}
	if report.Init, err = inits.Summarize(); err != nil {
		return ReplayReport{}, err
	}
	if report.Exec, err = execs.Summarize(); err != nil {
		return ReplayReport{}, err
	}
	if report.Latency, err = latencies.Summarize(); err != nil {
		return ReplayReport{}, err
	}
	return report, nil
}
