package trigtrace

import (
	"sort"
	"sync"

	"github.com/horse-faas/horse/internal/flightrec"
	"github.com/horse-faas/horse/internal/metrics"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
)

// RecorderOptions configures a Recorder.
type RecorderOptions struct {
	// Seed derives every trace ID (NewTraceID(Seed, seq)); use the
	// cluster run's seed so IDs are reproducible.
	Seed int64
	// Capacity bounds the flight recorder's must-keep ring of
	// SLO-violating span trees (0 selects flightrec.DefaultCapacity).
	Capacity int
	// WorstK bounds the worst-by-end-to-end-latency retention set
	// (0 selects flightrec.DefaultWorstK).
	WorstK int
	// Metrics, when non-nil, receives the trigtrace_* instruments.
	Metrics *telemetry.Registry
}

// Recorder mints trigger trace contexts, aggregates finished traces
// into the per-stage attribution table, and retains SLO-violating and
// worst-K span trees in its flight recorder.
//
// A nil *Recorder is a valid no-op: Start returns an inert Context and
// every accessor returns zeros. A non-nil Recorder is safe for
// concurrent use — Start and finish take one mutex — so the nodes of a
// future parallel cluster can share it.
type Recorder struct {
	seed int64

	mu sync.Mutex
	// The aggregates below are the coordinator's run tallies: finish
	// folds into them strictly between serve barriers, so shard-phase
	// code must never reach them (reconcile counts traces whose serving
	// stages did not sum to latency).
	agg       map[aggKey]*aggCell //horselint:coordinator
	finished  uint64              //horselint:coordinator
	violated  uint64              //horselint:coordinator
	reconcile uint64              //horselint:coordinator

	flight *flightrec.Buffer[*TriggerTrace] //horselint:coordinator

	// Prebound instrument handles (nil registry ⇒ nil handles, inert):
	// finish runs once per trigger, so it must not pay the registry's
	// name-format + map-lookup cost.
	tracesTotal     *telemetry.Counter
	violationsTotal *telemetry.Counter
	retainedViol    *telemetry.Counter
	retainedWorst   *telemetry.Counter
}

// aggKey indexes the attribution aggregates: one cell per (served
// mode, stage) pair.
type aggKey struct {
	mode  string
	stage Stage
}

// aggCell accumulates one cell's samples.
type aggCell struct {
	count   uint64
	total   simtime.Duration
	samples []simtime.Duration
}

// NewRecorder builds a recorder.
func NewRecorder(opts RecorderOptions) *Recorder {
	r := &Recorder{
		seed: opts.Seed,
		agg:  make(map[aggKey]*aggCell),
		flight: flightrec.New(opts.Capacity, opts.WorstK, func(t *TriggerTrace) simtime.Duration {
			return t.EndToEnd
		}),
	}
	m := opts.Metrics
	r.tracesTotal = m.Counter("trigtrace_traces_total")
	r.violationsTotal = m.Counter("trigtrace_slo_violations_total")
	r.retainedViol = m.Counter("trigtrace_retained_total", "reason", "slo-violation")
	r.retainedWorst = m.Counter("trigtrace_retained_total", "reason", "worst-k")
	return r
}

// Reset clears the attribution aggregates, the finished/violated/
// reconcile counters, and the flight recorder, returning the recorder
// to its freshly built state. The seed, retention sizing, and prebound
// instrument handles are kept (registry counters are cumulative by
// design, like every other instrument). Cluster.Run calls this at the
// top of each run so a recorder reused across back-to-back runs —
// lazily armed or caller-supplied — reports only the run at hand.
// Safe on a nil recorder.
//
//horselint:coordinator
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.agg = make(map[aggKey]*aggCell)
	r.finished = 0
	r.violated = 0
	r.reconcile = 0
	r.mu.Unlock()
	r.flight.Reset()
}

// Seed returns the seed trace IDs derive from.
func (r *Recorder) Seed() int64 {
	if r == nil {
		return 0
	}
	return r.seed
}

// Start mints the trace context for arrival seq. A nil recorder
// returns an inert Context at zero cost. The stage list is
// allocated by the first stage recorded, so an arrival the admission
// gate turns away carries none.
//
//horselint:coordinator
func (r *Recorder) Start(seq uint64, function, requested string, arrival simtime.Time, budget simtime.Duration) Context {
	if r == nil {
		return Context{}
	}
	tr := &TriggerTrace{
		ID:        NewTraceID(r.seed, seq),
		Seq:       seq,
		Function:  function,
		Requested: requested,
		Arrival:   arrival,
		Budget:    budget,
	}
	return Context{rec: r, tr: tr}
}

// finish folds one completed trace into the aggregates and offers its
// span tree to the flight recorder.
//
//horselint:coordinator
func (r *Recorder) finish(tr *TriggerTrace, out Outcome) {
	if tr.Stages == nil {
		tr.Stages = []StageRecord{} // encodes as [], not null
	}
	tr.Served = out.Served
	tr.Node = out.Node
	tr.Latency = out.Latency
	tr.Err = out.Err
	tr.EndToEnd = out.Latency + tr.OverheadTotal()
	tr.Violated = out.Err != "" || (tr.Budget > 0 && tr.Latency > tr.Budget)

	mode := out.Served
	if mode == "" {
		mode = "error"
	}

	r.mu.Lock()
	r.finished++
	if tr.Violated {
		r.violated++
	}
	if tr.ServingTotal() != tr.Latency {
		r.reconcile++
	}
	for _, s := range tr.Stages {
		key := aggKey{mode: mode, stage: s.Stage}
		cell := r.agg[key]
		if cell == nil {
			cell = &aggCell{}
			r.agg[key] = cell
		}
		cell.count++
		cell.total += s.Dur
		cell.samples = append(cell.samples, s.Dur)
	}
	r.mu.Unlock()

	r.tracesTotal.Inc()
	if tr.Violated {
		r.violationsTotal.Inc()
	}
	switch r.flight.Offer(tr, tr.Violated) {
	case flightrec.ReasonMustKeep:
		r.retainedViol.Inc()
	case flightrec.ReasonWorstK:
		r.retainedWorst.Inc()
	}
}

// Finished returns how many traces have completed.
func (r *Recorder) Finished() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.finished
}

// Violations returns how many finished traces missed their SLO.
func (r *Recorder) Violations() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.violated
}

// ReconcileFailures returns how many finished traces broke the
// invariant that serving-class stages sum exactly to the reported
// latency. Any nonzero value is an instrumentation bug.
func (r *Recorder) ReconcileFailures() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reconcile
}

// Flight returns the underlying flight-recorder buffer (nil on a nil
// recorder).
func (r *Recorder) Flight() *flightrec.Buffer[*TriggerTrace] {
	if r == nil {
		return nil
	}
	return r.flight
}

// Traces returns the retained span trees — the SLO-violator ring plus
// the worst-K set, deduplicated — sorted by arrival sequence. The
// caller owns the slice.
//
//horselint:coordinator
func (r *Recorder) Traces() []*TriggerTrace {
	if r == nil {
		return nil
	}
	seen := make(map[uint64]bool)
	var out []*TriggerTrace
	for _, t := range r.flight.Ring() {
		if !seen[t.Seq] {
			seen[t.Seq] = true
			out = append(out, t)
		}
	}
	for _, t := range r.flight.Worst() {
		if !seen[t.Seq] {
			seen[t.Seq] = true
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// StageLatency is one attribution-table row: the latency distribution
// of one stage under one served start mode.
type StageLatency struct {
	// Mode is the served start mode ("error" groups failed triggers).
	Mode  string `json:"mode"`
	Stage Stage  `json:"stage"`
	Class Class  `json:"class"`
	Count uint64 `json:"count"`
	// Total is the stage's summed virtual time; per mode, the
	// serving-class totals sum to the mode's summed latency.
	Total simtime.Duration `json:"total_ns"`
	P50   simtime.Duration `json:"p50_ns"`
	P99   simtime.Duration `json:"p99_ns"`
	Max   simtime.Duration `json:"max_ns"`
}

// Attribution returns the tail-latency attribution table, sorted by
// (mode, stage) so identical runs render identical tables. The caller
// owns the slice.
//
//horselint:coordinator
func (r *Recorder) Attribution() []StageLatency {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]aggKey, 0, len(r.agg))
	for key := range r.agg {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].mode != keys[j].mode {
			return keys[i].mode < keys[j].mode
		}
		return keys[i].stage < keys[j].stage
	})
	out := make([]StageLatency, 0, len(keys))
	for _, key := range keys {
		cell := r.agg[key]
		samples := append([]simtime.Duration(nil), cell.samples...)
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		row := StageLatency{
			Mode:  key.mode,
			Stage: key.stage,
			Class: StageClass(key.stage),
			Count: cell.count,
			Total: cell.total,
		}
		if len(samples) > 0 {
			row.P50 = metrics.RankQuantile(samples, 0.50)
			row.P99 = metrics.RankQuantile(samples, 0.99)
			row.Max = samples[len(samples)-1]
		}
		out = append(out, row)
	}
	return out
}
