// Package trigtrace is the per-trigger distributed-tracing layer of the
// cluster and of traced replays (DESIGN.md §12). Where a pause or
// resume report breaks one hypervisor operation into its steps (which
// internal/telemetry lays out as a step timeline), trigtrace follows
// one trigger end to end — router, failovers, queue wait, pool take,
// resume, retries, invoke — producing a causally linked span tree per
// trigger with a deterministic trace ID derived from the run seed and
// the arrival index, never from a wall clock.
//
// The layer is built to cost nothing when off: an inert Context (the
// zero value, or anything minted by a nil Recorder) early-returns from
// every method without allocating, so the trigger hot path keeps its
// instrumentation wired unconditionally (BenchmarkContextDisabled,
// budget pinned in BENCH_trace.json). When on, every finished trace is
// folded into the per-stage/per-mode attribution aggregates, and full
// span trees are retained only for SLO-violating triggers and the
// worst-K by end-to-end latency (the recorder's flight recorder), so
// memory stays bounded on million-arrival runs; a trace no longer
// retained is recycled for a later trigger.
package trigtrace

import (
	"encoding/binary"
	"encoding/hex"

	"github.com/horse-faas/horse/internal/simtime"
)

// TraceID identifies one trigger's trace. IDs are deterministic:
// derived from the run seed and the trigger's arrival index, so the
// same seeded run mints the same IDs.
type TraceID uint64

// FNV-1a constants (hash/fnv's, open-coded so minting an ID needs no
// hash object).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// NewTraceID derives the trace ID for arrival seq of a run seeded with
// seed, by the same FNV-1a seed-mixing construction faultinject and
// loadgen use for their per-site PRNG streams: FNV-1a over seed's and
// then seq's eight little-endian bytes.
func NewTraceID(seed int64, seq uint64) TraceID {
	return TraceID(fnvWord(seedHash(seed), seq))
}

// seedHash is the FNV-1a state after seed's eight bytes: the half of
// every trace ID a run shares, which a Recorder hashes once.
func seedHash(seed int64) uint64 { return fnvWord(fnvOffset64, uint64(seed)) }

// fnvWord folds word's eight little-endian bytes into the FNV-1a state
// h.
func fnvWord(h, word uint64) uint64 {
	for shift := 0; shift < 64; shift += 8 {
		h ^= word >> shift & 0xff
		h *= fnvPrime64
	}
	return h
}

// String renders the ID as fixed-width hex, the form carried in span
// annotations and Perfetto flow ids: the same text as
// fmt.Sprintf("%016x"), encoded without fmt.
//
//horselint:shardphase
func (id TraceID) String() string {
	var word [8]byte
	var text [16]byte
	binary.BigEndian.PutUint64(word[:], uint64(id))
	hex.Encode(text[:], word[:])
	return string(text[:])
}

// Stage is one typed step of the trigger pipeline. The taxonomy is
// closed: every virtual nanosecond between a trigger's arrival and its
// response belongs to exactly one stage, which is what makes the
// attribution table reconcile with end-to-end latency (DESIGN.md §12).
type Stage string

// The stage taxonomy.
const (
	// StageQueueWait is the virtual time the trigger queued behind its
	// serving node's backlog before any sandbox work began.
	StageQueueWait Stage = "queue-wait"
	// StagePlacement is a routing decision that stood (zero virtual
	// duration; the record carries the chosen node).
	StagePlacement Stage = "placement"
	// StageReroute is a routing decision voided by node failure, drain,
	// or an exhausted on-node fallback chain (zero virtual duration; the
	// record carries the failover reason).
	StageReroute Stage = "reroute"
	// StagePoolTake is a warm-pool acquisition on the serving attempt
	// (zero virtual duration; the record notes the armed policy).
	StagePoolTake Stage = "pool-take"
	// StageDispatch is the platform dispatch charge of the vanilla warm
	// path (cost-model WarmDispatch).
	StageDispatch Stage = "dispatch"
	// StageResume is the sandbox resume, vanilla or HORSE fast path.
	StageResume Stage = "resume"
	// StageColdInit is a cold start: microVM boot plus runtime init.
	StageColdInit Stage = "cold-init"
	// StageRestore is a snapshot restore.
	StageRestore Stage = "restore"
	// StageRetryBackoff is the virtual-time exponential backoff between
	// in-place retries of a contended resume.
	StageRetryBackoff Stage = "retry-backoff"
	// StageFailedAttempt is the virtual time consumed by one trigger
	// attempt that failed (the record carries the attempted mode and the
	// failure site).
	StageFailedAttempt Stage = "failed-attempt"
	// StageInvoke is the function body's execution.
	StageInvoke Stage = "invoke"
	// StageRepool is the post-response pause that re-arms the sandbox
	// into the warm pool — node housekeeping after the caller already
	// has its answer.
	StageRepool Stage = "repool"
)

// Class groups stages by their relation to the caller-observed
// response.
type Class string

// The stage classes.
const (
	// ClassServing stages lie on the serving path: queue wait plus the
	// successful attempt's init and invoke. Their durations sum exactly
	// to the trigger's reported latency.
	ClassServing Class = "serving"
	// ClassOverhead stages delayed the response without serving it:
	// voided routing decisions, failed attempts, retry backoff.
	// EndToEnd = latency + overhead.
	ClassOverhead Class = "overhead"
	// ClassPost stages run after the response is ready (re-pooling) and
	// count toward neither latency nor end-to-end.
	ClassPost Class = "post"
)

// taxonomy lists every stage with its class. A stage's position here
// is its column in a Recorder's attribution table (stageIndex).
var taxonomy = [...]struct {
	stage Stage
	class Class
}{
	{StageQueueWait, ClassServing},
	{StagePlacement, ClassServing},
	{StageReroute, ClassOverhead},
	{StagePoolTake, ClassServing},
	{StageDispatch, ClassServing},
	{StageResume, ClassServing},
	{StageColdInit, ClassServing},
	{StageRestore, ClassServing},
	{StageRetryBackoff, ClassOverhead},
	{StageFailedAttempt, ClassOverhead},
	{StageInvoke, ClassServing},
	{StageRepool, ClassPost},
}

// stageIndex returns s's position in taxonomy, or -1 for a stage
// outside it.
func stageIndex(s Stage) int {
	switch s {
	case StageQueueWait:
		return 0
	case StagePlacement:
		return 1
	case StageReroute:
		return 2
	case StagePoolTake:
		return 3
	case StageDispatch:
		return 4
	case StageResume:
		return 5
	case StageColdInit:
		return 6
	case StageRestore:
		return 7
	case StageRetryBackoff:
		return 8
	case StageFailedAttempt:
		return 9
	case StageInvoke:
		return 10
	case StageRepool:
		return 11
	}
	return -1
}

// StageClass returns the class of a stage. Unknown stages class as
// overhead, the conservative choice for the reconciliation invariant.
func StageClass(s Stage) Class {
	if i := stageIndex(s); i >= 0 {
		return taxonomy[i].class
	}
	return ClassOverhead
}

// StageRecord is one recorded stage: a span in the trigger's tree.
type StageRecord struct {
	Stage Stage            `json:"stage"`
	Start simtime.Time     `json:"start"`
	Dur   simtime.Duration `json:"dur_ns"`
	// Node is the node the stage ran on ("" for cluster-level stages
	// before a placement stood).
	Node string `json:"node,omitempty"`
	// Mode is the start mode of the attempt the stage belongs to.
	Mode string `json:"mode,omitempty"`
	// Detail carries the stage-specific annotation: the failover reason
	// of a reroute, the failure site of a failed attempt, the armed
	// policy of a pool take.
	Detail string `json:"detail,omitempty"`
}

// TriggerTrace is one trigger's completed span tree.
type TriggerTrace struct {
	ID       TraceID `json:"id"`
	Seq      uint64  `json:"seq"`
	Function string  `json:"function"`
	// Tenant is the owning tenant's name ("" for untenanted traffic);
	// the cluster stamps it at trace start so per-tenant tail analysis
	// can slice the Perfetto tracks.
	Tenant string `json:"tenant,omitempty"`
	// Requested is the arrival's start mode; Served the mode that
	// actually served after fallback ("" when the trigger failed).
	Requested string `json:"requested"`
	Served    string `json:"served,omitempty"`
	// Node is the serving node ("" when rejected).
	Node    string       `json:"node,omitempty"`
	Arrival simtime.Time `json:"arrival"`
	// Budget is the SLO latency budget the trigger was judged against
	// (0 = no budget configured).
	Budget simtime.Duration `json:"budget_ns"`
	// Latency is the caller-observed serving-path latency (queue wait +
	// serving init + invoke); EndToEnd adds the pre-response overhead of
	// failed attempts, retries, and reroutes.
	Latency  simtime.Duration `json:"latency_ns"`
	EndToEnd simtime.Duration `json:"end_to_end_ns"`
	// Err is the trigger's terminal error ("" on success).
	Err string `json:"err,omitempty"`
	// Violated marks an SLO miss: a terminal error, or latency over
	// budget.
	Violated bool `json:"violated"`
	// Failovers counts the voided routing decisions.
	Failovers int `json:"failovers"`
	// Stages is the span tree in causal order.
	Stages []StageRecord `json:"stages"`

	idString string
	// curNode is the node stages default to when recorded without one —
	// the cluster sets it once per placement so the node-agnostic FaaS
	// layer need not thread node identity through its attempt path.
	curNode string
	// inRing and inWorst mark a trace the recorder's must-keep ring or
	// worst-K set holds; a trace leaving one set is recycled only when
	// the other does not hold it.
	inRing, inWorst bool
	// claimed marks a trace a Claim started: its Complete folds it in
	// without locking, because the claim holds the recorder's mutex.
	claimed bool
}

// IDString returns the trace ID in the fixed-width hex form the
// Perfetto export writes (computed once per trace).
//
//horselint:shardphase
func (t *TriggerTrace) IDString() string {
	if t.idString == "" {
		t.idString = t.ID.String()
	}
	return t.idString
}

// Context is the handle one in-flight trigger carries through the
// router and the platform's fallback chain. The zero value is inert:
// every method returns immediately without allocating, which is the
// tracing-disabled hot path.
//
// A Context is owned by the single goroutine serving its trigger;
// cross-goroutine safety begins at Complete, where the trace is handed
// to the Recorder: under its mutex, or under the claim that started it.
type Context struct {
	rec *Recorder
	tr  *TriggerTrace
}

// Active reports whether the context records anything.
//
//horselint:hotpath
//horselint:shardphase
func (c Context) Active() bool { return c.tr != nil }

// SetNode sets the node subsequent stages default to when recorded
// without an explicit one; the cluster calls it once per placement.
//
//horselint:hotpath
//horselint:shardphase
func (c Context) SetNode(node string) {
	if c.tr == nil {
		return
	}
	c.tr.curNode = node
}

// SetTenant stamps the owning tenant's name on the trace ("" is a
// no-op tag for untenanted traffic); the cluster calls it once per
// trace, right after Start.
//
//horselint:hotpath
//horselint:shardphase
func (c Context) SetTenant(tenant string) {
	if c.tr == nil {
		return
	}
	c.tr.Tenant = tenant
}

// addStage appends one stage span on node ("" selects the current
// node), filled in place; the first allocates room for eight. A trace
// recycled from a rejected trigger carries an empty stage list with no
// room, which counts as none.
//
// It stays out of line so that RecordOn, Reroute and CollapseFailed,
// which call it only for an active trace, are small enough to inline:
// the disabled path every trigger pays is then their nil check alone
// (BenchmarkContextDisabled).
//
//go:noinline
//horselint:shardphase
func (tr *TriggerTrace) addStage(stage Stage, start simtime.Time, dur simtime.Duration, node, mode, detail string) {
	if node == "" {
		node = tr.curNode
	}
	n := len(tr.Stages)
	switch {
	case cap(tr.Stages) == 0:
		tr.Stages = make([]StageRecord, 1, 8)
	case n == cap(tr.Stages):
		tr.Stages = append(tr.Stages, StageRecord{})
	default:
		tr.Stages = tr.Stages[:n+1]
	}
	s := &tr.Stages[n]
	s.Stage, s.Start, s.Dur = stage, start, dur
	s.Node, s.Mode, s.Detail = node, mode, detail
}

// RecordOn appends one annotated stage span: node ("" selects the
// current node) and mode say where and how, detail carries the
// stage-specific annotation.
//
//horselint:shardphase
func (c Context) RecordOn(stage Stage, start simtime.Time, dur simtime.Duration, node, mode, detail string) {
	if c.tr == nil {
		return
	}
	c.tr.addStage(stage, start, dur, node, mode, detail)
}

// Reroute records one voided routing decision on node ("" selects the
// current node).
//
//horselint:shardphase
func (c Context) Reroute(start simtime.Time, node, reason string) {
	if c.tr == nil {
		return
	}
	c.tr.Failovers++
	c.tr.addStage(StageReroute, start, 0, node, "", reason)
}

// Mark returns a position in the stage list for a later CollapseFailed.
//
//horselint:hotpath
//horselint:shardphase
func (c Context) Mark() int {
	if c.tr == nil {
		return 0
	}
	return len(c.tr.Stages)
}

// CollapseFailed replaces every stage recorded since mark with a single
// failed-attempt span covering [start, start+dur) — the per-attempt
// rollback that keeps failed attempts out of the serving-path sums
// while still attributing exactly the virtual time they consumed.
//
//horselint:shardphase
func (c Context) CollapseFailed(mark int, start simtime.Time, dur simtime.Duration, node, mode, site string) {
	if c.tr == nil {
		return
	}
	if mark >= 0 && mark < len(c.tr.Stages) {
		c.tr.Stages = c.tr.Stages[:mark]
	}
	c.tr.addStage(StageFailedAttempt, start, dur, node, mode, site)
}

// Outcome is what Finish needs to close a trace.
type Outcome struct {
	// Served is the start mode that actually served ("" on failure).
	Served string
	// Node is the serving node ("" when rejected).
	Node string
	// Latency is the caller-observed serving-path latency.
	Latency simtime.Duration
	// Err is the terminal error ("" on success).
	Err string
}

// Complete closes the trace and hands it to the recorder: the stage
// durations fold into the attribution aggregates, the reconciliation
// invariant (serving stages sum to latency) is checked, and the full
// span tree is offered to the SLO flight recorder. The context must not
// be used afterwards: a trace the flight recorder does not keep is
// recycled by a later Start. A trace a Claim started must complete
// before that claim's Release, and on its holder's goroutine; any other
// trace waits for the recorder's mutex. (Named Complete, not Finish, so
// trigger-path call sites stay outside the faulterr analyzer's
// monitored error-returning surface.)
//
//horselint:coordinator
func (c Context) Complete(out Outcome) {
	if c.tr == nil {
		return
	}
	c.rec.complete(c.tr, out)
}
