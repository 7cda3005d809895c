// Package core implements HORSE, the paper's contribution: a hot-resume
// fast path for paused sandboxes hosting ultra-low-latency workloads.
//
// HORSE changes both halves of the sandbox lifecycle (paper §4):
//
//   - At pause time it assigns the sandbox to a reserved ull_runqueue,
//     builds merge_vcpus (the sandbox's vCPUs pre-merged into one sorted
//     list), arms P²SM's arrayB/posA structures against that queue, and
//     precomputes the coalesced load-update coefficients (αⁿ, β·Σαⁱ).
//   - At resume time it enters a pre-armed fast path that splices
//     merge_vcpus into the ull_runqueue in O(1) with one two-pointer
//     splice per posA key (the paper's merge threads, charged in virtual
//     time as vmm.CostModel.PSMMerge), applies a single fused load update,
//     and flips the sandbox to running — ≈150 ns regardless of the vCPU
//     count, versus a vanilla resume that grows linearly with it.
//
// The package also implements the two ablated variants the evaluation
// compares (Figure 3): ppsm (P²SM only, per-vCPU load updates) and coal
// (sequential merge, coalesced load update only).
package core

import (
	"errors"
	"fmt"

	"github.com/horse-faas/horse/internal/pelt"
	"github.com/horse-faas/horse/internal/psm"
	"github.com/horse-faas/horse/internal/runqueue"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
	"github.com/horse-faas/horse/internal/vmm"
)

// Policy selects a pause/resume implementation. Pause and resume must use
// the same policy for a given sandbox generation: each policy prepares at
// pause time exactly the state its resume path consumes.
type Policy string

// The four setups of the paper's Figure 3.
const (
	// Vanilla is the unmodified path (vmm's sequential merge + per-vCPU
	// load updates).
	Vanilla Policy = vmm.PolicyVanilla
	// PPSM applies only the parallel precomputed sorted merge.
	PPSM Policy = "ppsm"
	// Coal applies only the coalesced load update.
	Coal Policy = "coal"
	// Horse applies both mechanisms plus the pre-armed fast-path entry.
	Horse Policy = "horse"
)

// Errors reported by the engine.
var (
	ErrNotULL         = errors.New("core: sandbox is not flagged for uLL")
	ErrNotPrepared    = errors.New("core: sandbox has no prepared pause state")
	ErrPolicyMismatch = errors.New("core: resume policy differs from pause policy")
	ErrUnknownPolicy  = errors.New("core: unknown policy")
	// ErrPoisoned marks a resume that failed after it started mutating
	// run-queue state: the prepared structures have been dropped and the
	// sandbox must be destroyed, not retried or re-pooled. Failures at
	// resume entry (lock contention, injected faults) are NOT poisoned —
	// the sandbox stays paused, prepared, and retryable.
	ErrPoisoned = errors.New("core: resume failed mid-flight; sandbox state is suspect")
)

// pausedState is what a policy prepared at pause time.
type pausedState struct {
	policy Policy
	queue  *runqueue.Queue
	pre    *psm.Precomputed[*runqueue.Entity] // merge_vcpus + posA/arrayB (ppsm, horse)
	coal   pelt.Coefficients                  // fused load update (coal, horse)
}

// Engine is the HORSE resume engine layered over a hypervisor.
//
// Engine is not safe for concurrent use, matching the single-threaded
// simulation that drives it (the real system serializes these paths under
// the hypervisor's pause/resume locks).
type Engine struct {
	h *vmm.Hypervisor
	// states holds each prepared sandbox's state, keyed by the sandbox
	// itself: a pointer hashes in one word, where its ID would hash as
	// a string on every pause and resume.
	states map[*vmm.Sandbox]*pausedState

	// syncWork accumulates the background cost of keeping paused
	// sandboxes' arrayB/posA synchronized when the ull_runqueue changes;
	// it runs off the resume critical path but counts toward the §5.2
	// CPU overhead.
	syncWork simtime.Duration

	// Prebound per-trigger instruments (inert nil handles when the
	// hypervisor has no registry), so the pause/resume paths skip the
	// registry's name lookup on every operation.
	prepared     *telemetry.Gauge
	coalesced    *telemetry.Counter
	spliceOps    *telemetry.Counter
	splicedVCPUs *telemetry.Counter

	// statePool is a one-slot free list of pausedState frames: a horse
	// trigger pauses and resumes once per invocation, so the frame
	// released by the resume is reused by the next pause.
	statePool *pausedState
	// prePool is the same for the P²SM precompute: the one a resume's
	// merge consumed (and unregistered) is re-armed by the next pause,
	// which relinks the paused sandbox's just-removed run-queue elements
	// as its source, so a pause-resume cycle allocates none of it.
	prePool *psm.Precomputed[*runqueue.Entity]
	// spliceScratch is the reusable element snapshot spliceMergeVCPUs
	// takes before each merge.
	spliceScratch []*runqueue.Element
}

// NewEngine returns a HORSE engine over the given hypervisor.
func NewEngine(h *vmm.Hypervisor) *Engine {
	m := h.Metrics()
	return &Engine{
		h:            h,
		states:       make(map[*vmm.Sandbox]*pausedState),
		prepared:     m.Gauge("horse_prepared_sandboxes"),
		coalesced:    m.Counter("horse_coalesced_updates_total"),
		spliceOps:    m.Counter("horse_splice_ops_total"),
		splicedVCPUs: m.Counter("horse_spliced_vcpus_total"),
	}
}

// Hypervisor returns the underlying hypervisor.
func (e *Engine) Hypervisor() *vmm.Hypervisor { return e.h }

// PreparedSandboxes returns how many paused sandboxes hold prepared state.
func (e *Engine) PreparedSandboxes() int { return len(e.states) }

// BackgroundSyncWork returns the accumulated off-critical-path structure
// maintenance cost.
func (e *Engine) BackgroundSyncWork() simtime.Duration { return e.syncWork }

// MemoryFootprint returns the heap bytes currently held by P²SM auxiliary
// structures across all prepared sandboxes — the §5.2 memory overhead
// (the paper measures ≈528 KB for ten paused uLL sandboxes).
func (e *Engine) MemoryFootprint() int {
	total := 0
	for _, st := range e.states {
		if st.pre != nil {
			total += st.pre.MemoryFootprint()
		}
	}
	return total
}

// Pause pauses a sandbox under the given policy, preparing the state that
// policy's resume path consumes.
func (e *Engine) Pause(sb *vmm.Sandbox, policy Policy) (vmm.PauseReport, error) {
	return e.AppendPause(nil, sb, policy)
}

// AppendPause is Pause with the report's steps appended to dst, so a
// caller that reuses one buffer for reports it does not keep pays no
// allocation for them.
func (e *Engine) AppendPause(dst []simtime.StopwatchResult, sb *vmm.Sandbox, policy Policy) (vmm.PauseReport, error) {
	switch policy {
	case Vanilla:
		return e.h.AppendPause(dst, sb)
	case PPSM, Coal, Horse:
		return e.pauseULL(dst, sb, policy)
	default:
		return vmm.PauseReport{}, fmt.Errorf("%w: %q", ErrUnknownPolicy, policy)
	}
}

// pauseULL implements the HORSE-side pause (§4.1.3, §4.2.2): remove the
// vCPUs, bind the sandbox to the least-assigned ull_runqueue, and build
// the structures the chosen resume path needs.
func (e *Engine) pauseULL(dst []simtime.StopwatchResult, sb *vmm.Sandbox, policy Policy) (vmm.PauseReport, error) {
	if !sb.ULL() {
		return vmm.PauseReport{}, fmt.Errorf("%w: %s", ErrNotULL, sb.ID())
	}
	costs := e.h.Costs()
	q := e.h.LeastAssignedULLQueue()
	st := e.statePool
	if st == nil {
		st = &pausedState{}
	} else {
		e.statePool = nil
	}
	*st = pausedState{policy: policy, queue: q}

	if policy == Coal || policy == Horse {
		// Validate the coalescing parameters before touching the queues
		// so a failure leaves the sandbox untouched.
		coal, cerr := pelt.Coalesce(pelt.DefaultAlpha, pelt.DefaultBeta, sb.NumVCPUs())
		if cerr != nil {
			return vmm.PauseReport{}, cerr
		}
		st.coal = coal
	}

	ctx, err := e.h.BeginPause(sb, string(policy))
	if err != nil {
		return vmm.PauseReport{}, err
	}
	if err := ctx.RemoveVCPUs(); err != nil {
		return vmm.PauseReport{}, err
	}

	if policy == Coal || policy == Horse {
		ctx.Charge(vmm.StepPauseCoalesce, costs.PauseCoalescePrecompute)
	}
	if policy == PPSM || policy == Horse {
		// merge_vcpus + posA/arrayB: one sorted-merge per vCPU into the
		// source list, plus the group bookkeeping.
		st.pre = e.armPrecomputed(q)
		unplaced := ctx.Unplaced()
		for i, v := range sb.VCPUs() {
			ctx.Charge(vmm.StepPauseMaint, costs.PauseStructMaint)
			if i < len(unplaced) {
				st.pre.AddSourceElement(unplaced[i].Element, v.Credit, v)
			} else {
				st.pre.AddSource(v.Credit, v)
			}
		}
	}

	e.states[sb] = st
	e.prepared.Set(int64(len(e.states)))
	return ctx.Finish(dst)
}

// armPrecomputed returns an empty P²SM precompute targeting q and
// registered as its observer: the pooled one a merge consumed when
// there is one, a new one otherwise.
func (e *Engine) armPrecomputed(q *runqueue.Queue) *psm.Precomputed[*runqueue.Entity] {
	if pre := e.prePool; pre != nil {
		e.prePool = nil
		if q.Rearm(pre) == nil {
			return pre
		}
	}
	return q.NewPrecomputed()
}

// Resume resumes a sandbox under the given policy.
func (e *Engine) Resume(sb *vmm.Sandbox, policy Policy) (vmm.ResumeReport, error) {
	return e.AppendResume(nil, sb, policy)
}

// AppendResume is Resume with the report's steps appended to dst, as
// AppendPause.
func (e *Engine) AppendResume(dst []simtime.StopwatchResult, sb *vmm.Sandbox, policy Policy) (vmm.ResumeReport, error) {
	switch policy {
	case Vanilla:
		if st, ok := e.states[sb]; ok {
			return vmm.ResumeReport{}, fmt.Errorf("%w: paused as %q, resumed as %q",
				ErrPolicyMismatch, st.policy, policy)
		}
		return e.h.AppendResume(dst, sb)
	case PPSM, Coal, Horse:
	default:
		return vmm.ResumeReport{}, fmt.Errorf("%w: %q", ErrUnknownPolicy, policy)
	}
	st, ok := e.states[sb]
	if !ok {
		return vmm.ResumeReport{}, fmt.Errorf("%w: %s", ErrNotPrepared, sb.ID())
	}
	if st.policy != policy {
		return vmm.ResumeReport{}, fmt.Errorf("%w: paused as %q, resumed as %q",
			ErrPolicyMismatch, st.policy, policy)
	}

	var (
		report vmm.ResumeReport
		began  bool
		err    error
	)
	switch policy {
	case Horse:
		report, began, err = e.resumeHorse(dst, sb, st)
	case PPSM:
		report, began, err = e.resumePPSM(dst, sb, st)
	case Coal:
		report, began, err = e.resumeCoal(dst, sb, st)
	}
	if err != nil {
		if began {
			// The resume died after it started touching queue state;
			// the prepared splice/coalesce structures can no longer be
			// trusted, so drop them and tell the caller the sandbox is
			// poisoned. Entry failures (began=false) leave everything
			// intact for a retry.
			e.dropState(sb, st)
			return vmm.ResumeReport{}, fmt.Errorf("%w: %s: %w", ErrPoisoned, sb.ID(), err)
		}
		return vmm.ResumeReport{}, err
	}
	delete(e.states, sb)
	e.prepared.Set(int64(len(e.states)))
	e.recycle(st)
	return report, nil
}

// recycle returns a released pausedState frame, and the precompute its
// merge consumed, to the one-slot pools so the next pause reuses them
// instead of allocating.
func (e *Engine) recycle(st *pausedState) {
	if st.pre != nil {
		e.prePool = st.pre
	}
	*st = pausedState{}
	e.statePool = st
}

// resumeHorse is the full fast path: pre-armed entry, O(1) P²SM splice,
// one coalesced load update. The returned began flag reports whether the
// resume frame opened (and thus whether a failure may have mutated
// queue state).
func (e *Engine) resumeHorse(dst []simtime.StopwatchResult, sb *vmm.Sandbox, st *pausedState) (vmm.ResumeReport, bool, error) {
	ctx, err := e.h.BeginResume(sb, string(Horse), true)
	if err != nil {
		return vmm.ResumeReport{}, false, err
	}
	if err := e.spliceMergeVCPUs(ctx, st); err != nil {
		ctx.Abort()
		return vmm.ResumeReport{}, true, err
	}
	ctx.Charge(vmm.StepCoalesce, e.h.Costs().CoalescedUpdate)
	st.queue.Load().PlaceCoalesced(st.coal)
	e.coalesced.Inc()
	report, err := ctx.Finish(dst)
	return report, true, err
}

// resumePPSM uses the slow-path entry and the P²SM splice, but keeps the
// vanilla per-vCPU locked load updates.
func (e *Engine) resumePPSM(dst []simtime.StopwatchResult, sb *vmm.Sandbox, st *pausedState) (vmm.ResumeReport, bool, error) {
	ctx, err := e.h.BeginResume(sb, string(PPSM), false)
	if err != nil {
		return vmm.ResumeReport{}, false, err
	}
	if err := e.spliceMergeVCPUs(ctx, st); err != nil {
		ctx.Abort()
		return vmm.ResumeReport{}, true, err
	}
	costs := e.h.Costs()
	load := st.queue.Load()
	for range sb.VCPUs() {
		ctx.Charge(vmm.StepLoad, costs.LoadUpdate)
		load.PlaceEntity()
	}
	report, err := ctx.Finish(dst)
	return report, true, err
}

// resumeCoal uses the slow-path entry and the vanilla sequential merge
// (into the single assigned ull_runqueue), with the single coalesced load
// update replacing the per-vCPU updates.
func (e *Engine) resumeCoal(dst []simtime.StopwatchResult, sb *vmm.Sandbox, st *pausedState) (vmm.ResumeReport, bool, error) {
	ctx, err := e.h.BeginResume(sb, string(Coal), false)
	if err != nil {
		return vmm.ResumeReport{}, false, err
	}
	costs := e.h.Costs()
	for i, v := range sb.VCPUs() {
		mergeCost := costs.MergeWarm
		if i == 0 {
			mergeCost = costs.MergeCold
		}
		ctx.Charge(vmm.StepMerge, mergeCost)
		elem, _, ierr := st.queue.Insert(v)
		if ierr != nil {
			ctx.Abort()
			return vmm.ResumeReport{}, true, ierr
		}
		ctx.Place(st.queue, elem)
		e.accountSync(st.queue, 1)
	}
	ctx.Charge(vmm.StepCoalesce, costs.CoalescedUpdate)
	st.queue.Load().PlaceCoalesced(st.coal)
	e.coalesced.Inc()
	report, err := ctx.Finish(dst)
	return report, true, err
}

// spliceMergeVCPUs performs the P²SM merge of merge_vcpus into the
// sandbox's ull_runqueue and records the resulting placements.
func (e *Engine) spliceMergeVCPUs(ctx *vmm.ResumeContext, st *pausedState) error {
	// Snapshot the source elements into the engine's reusable scratch:
	// after the splice they are the sandbox's queue placements.
	elems := e.spliceScratch[:0]
	for el := st.pre.Source().Front(); el != nil; el = el.Next() {
		elems = append(elems, el)
	}
	e.spliceScratch = elems
	ctx.Charge(vmm.StepPSM, e.h.Costs().PSMMerge)
	res, err := st.queue.MergePSM(st.pre)
	if err != nil {
		return err
	}
	e.spliceOps.Inc()
	e.splicedVCPUs.Add(uint64(len(elems)))
	for _, el := range elems {
		ctx.Place(st.queue, el)
	}
	// Sibling paused sandboxes on this queue were resynchronized by
	// MergePSM; account that off-critical-path work.
	e.accountSync(st.queue, res.Merged)
	return nil
}

// accountSync records the background cost of bringing every *other*
// observer of q up to date after n insertions.
func (e *Engine) accountSync(q *runqueue.Queue, n int) {
	observers := q.ObserverCount()
	if observers <= 0 || n <= 0 {
		return
	}
	e.syncWork += simtime.Duration(observers*n) * e.h.Costs().TargetSyncPerElement
}

// Forget releases the prepared state of a paused sandbox without resuming
// it (e.g. the keep-alive window expired and the platform destroys it).
func (e *Engine) Forget(sb *vmm.Sandbox) {
	st, ok := e.states[sb]
	if !ok {
		return
	}
	e.dropState(sb, st)
}

func (e *Engine) dropState(sb *vmm.Sandbox, st *pausedState) {
	if st.pre != nil {
		st.queue.Unobserve(st.pre)
	}
	delete(e.states, sb)
	e.prepared.Set(int64(len(e.states)))
}

// Validate cross-checks every prepared sandbox's auxiliary structures
// against its assigned queue and returns the first inconsistency. Tests
// and failure-injection harnesses call it between operations; a healthy
// engine always validates cleanly because the structures are maintained
// on every queue update.
func (e *Engine) Validate() error {
	for sb, st := range e.states {
		if st.pre == nil {
			continue
		}
		if st.pre.Target() != st.queue.List() {
			return fmt.Errorf("core: %s precompute targets the wrong queue", sb.ID())
		}
		if err := st.pre.Validate(); err != nil {
			return fmt.Errorf("core: %s: %w", sb.ID(), err)
		}
	}
	return nil
}
