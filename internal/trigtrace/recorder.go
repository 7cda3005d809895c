package trigtrace

import (
	"cmp"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

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
	// SLO-violating span trees (0 selects 256).
	Capacity int
	// WorstK bounds the worst-by-end-to-end-latency retention set
	// (0 selects 8).
	WorstK int
	// Metrics, when non-nil, receives the trigtrace_* instruments.
	Metrics *telemetry.Registry
}

// Default retention sizing, for RecorderOptions left at zero.
const (
	defaultCapacity = 256
	defaultWorstK   = 8
)

// Recorder mints trigger trace contexts, aggregates finished traces
// into the per-stage attribution table, and retains SLO-violating and
// worst-K span trees in its flight recorder.
//
// A nil *Recorder is a valid no-op: Start returns an inert Context and
// every accessor returns zeros. A non-nil Recorder is safe for
// concurrent use: its Start, the Complete of a trace it started and its
// accessors each take one mutex. A run takes that mutex once instead,
// through Claim, and records through the Claim it gets back without
// further locking; direct callers wait until the claim's Release.
//
// Traces are recycled. A finished trace the flight recorder does not
// retain — declined at the offer, or evicted later — returns to a free
// list that the next Start pops, so a run allocates a trace only when
// more are in flight or retained than ever before. A Context must not
// be used after its Complete; Traces hands out copies.
type Recorder struct {
	// seedHash is the FNV-1a state after the seed's bytes, the half of
	// NewTraceID every arrival shares, so Start hashes only its index.
	seedHash uint64

	// mu guards the aggregates, retention and the free list. Cluster
	// runs call Start and Complete only on the coordinator, but a
	// recorder passed to Cluster.SetTrace may be shared by clusters on
	// different goroutines: their runs take turns through Claim, which
	// holds mu from Claim to Release, while direct Trigger callers
	// interleave Start and Complete, each under mu. inUse refuses a
	// second claim at once instead of queueing it on mu.
	mu    sync.Mutex
	inUse atomic.Bool
	// The aggregates below are the coordinator's run tallies: finish
	// folds into them strictly between serve barriers, so shard-phase
	// code must never reach them (reconcile counts traces whose serving
	// stages did not sum to latency). The attribution table is dense:
	// cells[row][col] is one latency series per (served mode, stage),
	// a row per mode in modes and a column per stage — the taxonomy's
	// stages by stageIndex, then any stage outside it in extra. A cell
	// is created on its first record.
	modes     []string            //horselint:coordinator
	extra     []Stage             //horselint:coordinator
	cells     [][]*metrics.Series //horselint:coordinator
	violated  uint64              //horselint:coordinator
	reconcile uint64              //horselint:coordinator

	// The flight recorder (offer): ring is the must-keep ring of
	// violators, oldest at ringHead once full; worst is the worst-K set
	// by end-to-end latency, a binary min-heap in evictBefore order, so
	// worst[0] is the next to go. offered numbers the offers for the
	// worst-K tie-break.
	ring     []*TriggerTrace //horselint:coordinator
	ringHead int             //horselint:coordinator
	ringCap  int             //horselint:coordinator
	worst    []worstEntry    //horselint:coordinator
	worstK   int             //horselint:coordinator
	offered  uint64          //horselint:coordinator
	// free holds finished traces no retention set holds any more;
	// Start pops them.
	free []*TriggerTrace //horselint:coordinator

	// Prebound instrument handles (nil registry ⇒ nil handles, inert):
	// finish runs once per trigger, so it must not pay the registry's
	// name-format + map-lookup cost.
	tracesTotal     *telemetry.Counter
	violationsTotal *telemetry.Counter
	retainedViol    *telemetry.Counter
	retainedWorst   *telemetry.Counter
}

// worstEntry is one worst-K trace with its score and offer number.
type worstEntry struct {
	tr    *TriggerTrace
	score simtime.Duration
	seq   uint64
}

// evictBefore reports whether the worst-K set lets a go before b: a has
// the lower score, or the same score and the later offer.
func evictBefore(a, b *worstEntry) bool {
	return a.score < b.score || (a.score == b.score && a.seq > b.seq)
}

// retention says which set, if any, took an offered trace.
type retention uint8

const (
	notKept      retention = iota // aggregated; the span tree is not kept
	keptViolator                  // entered the must-keep ring
	keptWorst                     // entered the worst-K set only
)

// ErrRecorderInUse is Claim's refusal: another run holds the recorder.
var ErrRecorderInUse = errors.New("trigtrace: recorder is in use by another run")

// NewRecorder builds a recorder.
//
//horselint:coordinator
func NewRecorder(opts RecorderOptions) *Recorder {
	r := &Recorder{seedHash: seedHash(opts.Seed), ringCap: opts.Capacity, worstK: opts.WorstK}
	if r.ringCap <= 0 {
		r.ringCap = defaultCapacity
	}
	if r.worstK <= 0 {
		r.worstK = defaultWorstK
	}
	m := opts.Metrics
	r.tracesTotal = m.Counter("trigtrace_traces_total")
	r.violationsTotal = m.Counter("trigtrace_slo_violations_total")
	r.retainedViol = m.Counter("trigtrace_retained_total", "reason", "slo-violation")
	r.retainedWorst = m.Counter("trigtrace_retained_total", "reason", "worst-k")
	return r
}

// Claim takes the recorder for one run until the returned Claim's
// Release and returns it to its freshly built state: aggregates,
// counters and flight recorder are cleared (retained traces are
// dropped, not recycled), while the seed, retention sizing, free list
// and instrument handles stay. The claim holds r.mu until Release, so
// the holder records through the Claim without locking per arrival,
// and direct callers of Start, Complete and the accessors wait. It
// fails at once with ErrRecorderInUse while another run holds the
// recorder, so clusters sharing one may run one after another but
// never overlap. Cluster.Run claims at the top of each run. A nil
// recorder hands out the inert zero Claim.
//
//horselint:coordinator
func (r *Recorder) Claim() (Claim, error) {
	if r == nil {
		return Claim{}, nil
	}
	if !r.inUse.CompareAndSwap(false, true) {
		return Claim{}, ErrRecorderInUse
	}
	r.mu.Lock()
	r.modes, r.extra, r.cells = nil, nil, nil
	r.violated, r.reconcile = 0, 0
	clear(r.ring)
	r.ring, r.ringHead = r.ring[:0], 0
	clear(r.worst)
	r.worst, r.offered = r.worst[:0], 0
	return Claim{r: r}, nil
}

// Claim is one run's hold on a Recorder, from Recorder.Claim to
// Release. The holder owns the recorder outright meanwhile: the
// Claim's Start and accessors take no lock, nor does the Complete of a
// trace it started, so the holder calls them one at a time and before
// Release; the recorder's own methods would wait on the mutex the
// claim holds. The zero Claim is inert, like a nil Recorder.
type Claim struct {
	r *Recorder
}

// Release ends the claim; call it once. A no-op on the zero Claim.
//
//horselint:coordinator
func (c Claim) Release() {
	if c.r == nil {
		return
	}
	c.r.inUse.Store(false)
	c.r.mu.Unlock()
}

// Start is Recorder.Start for the claim's holder, without locking.
//
//horselint:coordinator
func (c Claim) Start(seq uint64, function, requested string, arrival simtime.Time, budget simtime.Duration) Context {
	if c.r == nil {
		return Context{}
	}
	return c.r.start(c.r.popFree(), true, seq, function, requested, arrival, budget)
}

// Start mints the trace context for arrival seq. A nil recorder
// returns an inert Context at zero cost. The trace comes from the free
// list when one is there, and Start overwrites all of it, keeping only
// the stage list's backing array; a fresh trace allocates its stage
// list with the first stage recorded, so an arrival the admission gate
// turns away carries none.
//
//horselint:coordinator
func (r *Recorder) Start(seq uint64, function, requested string, arrival simtime.Time, budget simtime.Duration) Context {
	if r == nil {
		return Context{}
	}
	return r.startLocked(seq, function, requested, arrival, budget)
}

// startLocked is Start on a non-nil recorder, popping the free list
// under r.mu; the split keeps Start's nil check inlinable into the
// disabled path.
//
//horselint:coordinator
func (r *Recorder) startLocked(seq uint64, function, requested string, arrival simtime.Time, budget simtime.Duration) Context {
	r.mu.Lock()
	tr := r.popFree()
	r.mu.Unlock()
	return r.start(tr, false, seq, function, requested, arrival, budget)
}

// popFree takes a trace off the free list, or returns nil when it is
// empty. Callers hold r.mu, or the claim.
//
//horselint:coordinator
func (r *Recorder) popFree() *TriggerTrace {
	k := len(r.free) - 1
	if k < 0 {
		return nil
	}
	tr := r.free[k]
	r.free = r.free[:k]
	return tr
}

// start mints arrival seq's context on tr, or on a fresh trace when tr
// is nil; claimed marks a trace a Claim started.
//
//horselint:coordinator
func (r *Recorder) start(tr *TriggerTrace, claimed bool, seq uint64, function, requested string, arrival simtime.Time, budget simtime.Duration) Context {
	if tr == nil {
		tr = new(TriggerTrace)
	}
	// Field by field, not a composite literal: the literal is built on
	// the stack and block-copied over the whole trace.
	tr.ID, tr.Seq = TraceID(fnvWord(r.seedHash, seq)), seq
	tr.Function, tr.Tenant, tr.Requested = function, "", requested
	tr.Served, tr.Node = "", ""
	tr.Arrival, tr.Budget = arrival, budget
	tr.Latency, tr.EndToEnd = 0, 0
	tr.Err, tr.Violated, tr.Failovers = "", false, 0
	tr.Stages = tr.Stages[:0]
	tr.idString, tr.curNode = "", ""
	tr.inRing, tr.inWorst, tr.claimed = false, false, claimed
	return Context{rec: r, tr: tr}
}

// complete is Complete on an active context: a trace a Claim started
// finishes without locking, any other under r.mu. The split keeps
// Complete's nil check inlinable into the disabled path.
//
//horselint:coordinator
func (r *Recorder) complete(tr *TriggerTrace, out Outcome) {
	if tr.claimed {
		r.finish(tr, out)
		return
	}
	r.mu.Lock()
	r.finish(tr, out)
	r.mu.Unlock()
}

// finish folds one completed trace into the aggregates and offers its
// span tree to the flight recorder. One pass over the stages sums the
// serving and overhead totals and records each stage's cell. Callers
// hold r.mu, or the claim that started tr.
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

	mode := out.Served
	if mode == "" {
		mode = "error"
	}

	row := r.row(mode)
	var serving, overhead simtime.Duration
	for i := range tr.Stages {
		s := &tr.Stages[i]
		col, class := stageIndex(s.Stage), ClassOverhead
		if col >= 0 {
			class = taxonomy[col].class
		} else {
			col = r.extraColumn(s.Stage)
		}
		switch class {
		case ClassServing:
			serving += s.Dur
		case ClassOverhead:
			overhead += s.Dur
		}
		r.cell(row, col).Record(s.Dur)
	}
	tr.EndToEnd = out.Latency + overhead
	tr.Violated = out.Err != "" || (tr.Budget > 0 && tr.Latency > tr.Budget)
	if tr.Violated {
		r.violated++
	}
	if serving != tr.Latency {
		r.reconcile++
	}
	violated := tr.Violated
	// From the offer on, tr may be back on the free list.
	kept := r.offer(tr, violated)

	r.tracesTotal.Inc()
	if violated {
		r.violationsTotal.Inc()
	}
	switch kept {
	case keptViolator:
		r.retainedViol.Inc()
	case keptWorst:
		r.retainedWorst.Inc()
	}
}

// offer is the flight recorder's retention decision for one finished
// trace. A violator enters the must-keep ring, evicting the oldest when
// full; every trace also competes for the worst-K set by end-to-end
// latency, where ties keep the earlier offer. The result is the
// strongest retention that applied: must-keep beats worst-K beats
// dropped. A trace no set holds any more (tr when dropped, or one this
// offer evicts from the last set holding it) goes on the free list.
// Retention is deterministic: same offers, same retained set. Callers
// hold r.mu.
//
//horselint:coordinator
func (r *Recorder) offer(tr *TriggerTrace, violated bool) retention {
	seq := r.offered
	r.offered++
	kept := notKept
	if violated {
		kept = keptViolator
		tr.inRing = true
		if len(r.ring) < r.ringCap {
			r.ring = append(r.ring, tr)
		} else {
			old := r.ring[r.ringHead]
			r.ring[r.ringHead] = tr
			r.ringHead = (r.ringHead + 1) % r.ringCap
			old.inRing = false
			if !old.inWorst {
				r.free = append(r.free, old)
			}
		}
	}
	if r.offerWorst(tr, seq) && kept == notKept {
		kept = keptWorst
	}
	if kept == notKept {
		r.free = append(r.free, tr)
	}
	return kept
}

// offerWorst puts tr into the worst-K set if it outranks the current
// minimum, freeing the entry it displaces unless the ring still holds
// that one, and reports whether tr went in. Among equal scores the
// later offer goes first, so the earliest survives. Each offer costs
// O(log K): the set is a heap, not a sorted list.
//
//horselint:coordinator
func (r *Recorder) offerWorst(tr *TriggerTrace, seq uint64) bool {
	s := tr.EndToEnd
	h := r.worst
	if len(h) >= r.worstK {
		if s <= h[0].score {
			return false
		}
		out := h[0].tr
		out.inWorst = false
		if !out.inRing {
			r.free = append(r.free, out)
		}
		last := len(h) - 1
		h[0] = h[last]
		h[last] = worstEntry{}
		h = h[:last]
		siftDown(h, 0)
	}
	h = append(h, worstEntry{tr: tr, score: s, seq: seq})
	siftUp(h, len(h)-1)
	tr.inWorst = true
	r.worst = h
	return true
}

// siftUp restores the heap order of h after its entry i moved.
func siftUp(h []worstEntry, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !evictBefore(&h[i], &h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the heap order of h after its entry i moved.
func siftDown(h []worstEntry, i int) {
	for {
		least := i
		for _, child := range [2]int{2*i + 1, 2*i + 2} {
			if child < len(h) && evictBefore(&h[child], &h[least]) {
				least = child
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// row returns the attribution-table row of a served mode, adding it on
// first use. A run serves a handful of modes, so the scan is short.
//
//horselint:coordinator
func (r *Recorder) row(mode string) int {
	for i, m := range r.modes {
		if m == mode {
			return i
		}
	}
	r.modes = append(r.modes, mode)
	r.cells = append(r.cells, make([]*metrics.Series, len(taxonomy)))
	return len(r.modes) - 1
}

// extraColumn returns the attribution-table column of a stage outside
// the taxonomy, adding it on first use.
//
//horselint:coordinator
func (r *Recorder) extraColumn(stage Stage) int {
	for i, s := range r.extra {
		if s == stage {
			return len(taxonomy) + i
		}
	}
	r.extra = append(r.extra, stage)
	return len(taxonomy) + len(r.extra) - 1
}

// cell returns the series of one attribution-table cell, creating it
// (and growing the row for an extra column) on first use.
//
//horselint:coordinator
func (r *Recorder) cell(row, col int) *metrics.Series {
	cells := r.cells[row]
	if col >= len(cells) {
		cells = append(cells, make([]*metrics.Series, col+1-len(cells))...)
		r.cells[row] = cells
	}
	if cells[col] == nil {
		cells[col] = metrics.NewSeries()
	}
	return cells[col]
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

// Violations is Recorder.Violations for the claim's holder, without
// locking.
//
//horselint:coordinator
func (c Claim) Violations() uint64 {
	if c.r == nil {
		return 0
	}
	return c.r.violated
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

// ReconcileFailures is Recorder.ReconcileFailures for the claim's
// holder, without locking.
//
//horselint:coordinator
func (c Claim) ReconcileFailures() uint64 {
	if c.r == nil {
		return 0
	}
	return c.r.reconcile
}

// Traces returns copies of the retained span trees — the SLO-violator
// ring plus the worst-K set, each trace once — sorted by arrival
// sequence. The caller owns the slice and the traces: the recorder
// recycles its own once they leave retention, and never these.
//
//horselint:coordinator
func (r *Recorder) Traces() []*TriggerTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*TriggerTrace
	keep := func(t *TriggerTrace) {
		cp := *t
		cp.Stages = slices.Clone(t.Stages)
		out = append(out, &cp)
	}
	for _, t := range r.ring {
		keep(t)
	}
	for _, w := range r.worst {
		if !w.tr.inRing { // an in-ring entry was copied above
			keep(w.tr)
		}
	}
	slices.SortFunc(out, func(a, b *TriggerTrace) int { return cmp.Compare(a.Seq, b.Seq) })
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
	return r.attribution()
}

// Attribution is Recorder.Attribution for the claim's holder, without
// locking.
//
//horselint:coordinator
func (c Claim) Attribution() []StageLatency {
	if c.r == nil {
		return nil
	}
	return c.r.attribution()
}

// attribution builds the attribution table. Callers hold r.mu, or the
// claim.
//
//horselint:coordinator
func (r *Recorder) attribution() []StageLatency {
	rows := make([]int, len(r.modes))
	for i := range rows {
		rows[i] = i
	}
	slices.SortFunc(rows, func(a, b int) int { return cmp.Compare(r.modes[a], r.modes[b]) })
	stages := make([]Stage, len(taxonomy), len(taxonomy)+len(r.extra))
	for i, t := range taxonomy {
		stages[i] = t.stage
	}
	stages = append(stages, r.extra...)
	cols := make([]int, len(stages))
	for i := range cols {
		cols[i] = i
	}
	slices.SortFunc(cols, func(a, b int) int { return cmp.Compare(stages[a], stages[b]) })
	out := make([]StageLatency, 0, len(rows)*len(cols))
	for _, row := range rows {
		cells := r.cells[row]
		for _, col := range cols {
			if col >= len(cells) || cells[col] == nil {
				continue
			}
			cell := cells[col]
			out = append(out, StageLatency{
				Mode:  r.modes[row],
				Stage: stages[col],
				Class: StageClass(stages[col]),
				Count: uint64(cell.Len()),
				Total: cell.Sum(),
				P50:   cell.RankQuantile(0.50),
				P99:   cell.RankQuantile(0.99),
				Max:   cell.RankQuantile(1),
			})
		}
	}
	return out
}
