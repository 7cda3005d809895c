package vmm

import (
	"errors"
	"fmt"

	"github.com/horse-faas/horse/internal/credit2"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/runqueue"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
)

// Errors reported by hypervisor operations.
var (
	ErrNotPaused      = errors.New("vmm: sandbox is not paused")
	ErrNotRunning     = errors.New("vmm: sandbox is not running")
	ErrStopped        = errors.New("vmm: sandbox is stopped")
	ErrResumeBusy     = errors.New("vmm: another resume holds the lock")
	ErrUnknownSandbox = errors.New("vmm: unknown sandbox")
	ErrBadConfig      = errors.New("vmm: invalid configuration")
)

// Config sizes a new sandbox.
type Config struct {
	// VCPUs is the virtual CPU count (1..MaxVCPUs).
	VCPUs int
	// MemoryMB is the guest memory allocation.
	MemoryMB int
	// ULL flags the sandbox for HORSE's reserved-queue fast path.
	ULL bool
}

// MaxVCPUs caps sandbox size; the paper evaluates 1..36, "covering and
// exceeding all the configuration options FaaS Cloud providers provide".
const MaxVCPUs = 128

// Accounting aggregates the virtual CPU time the hypervisor itself spent
// on lifecycle operations, split by phase — the basis of the §5.2 CPU
// overhead numbers.
type Accounting struct {
	PauseWork  simtime.Duration
	ResumeWork simtime.Duration
	Pauses     uint64
	Resumes    uint64
	LockWaits  uint64
}

// Hypervisor is the simulated virtualization system: it owns the physical
// CPUs' run queues (including the reserved ull_runqueues), the global
// resume lock, and the cost model.
//
// Hypervisor is not safe for concurrent use: like the simulation it backs,
// it is driven from a single goroutine.
type Hypervisor struct {
	clock      *simtime.Clock
	costs      CostModel
	general    []*runqueue.Queue
	ull        []*runqueue.Queue
	sandboxes  map[string]*Sandbox
	ledger     *credit2.Ledger
	nextID     int
	resumeLock bool
	acct       Accounting

	// metrics is the optional metrics sink (nil records nothing).
	metrics *telemetry.Registry

	// faults is the optional deterministic fault injector; Check on a
	// nil injector is a no-op, so the lifecycle entry points consult it
	// unconditionally.
	faults *faultinject.Injector

	// pauseFrame and resumeFrame are reusable lifecycle frames: the
	// hypervisor runs on one goroutine and frames of the same kind never
	// overlap on the trigger path, so Begin{Pause,Resume} reuse them
	// (stopwatch backing array included) instead of allocating per
	// operation. An overlapping frame falls back to a fresh allocation.
	pauseFrame  *PauseContext
	resumeFrame *ResumeContext
}

// generalCPUs is the number of general-purpose physical CPUs: one
// socket of the paper's testbed.
const generalCPUs = 36

// Options configures a Hypervisor.
type Options struct {
	// Costs is the virtual cost model; the zero value selects
	// DefaultCostModel.
	Costs CostModel
	// ULLQueues is the number of reserved ull_runqueues (default 1,
	// §4.1.3; raise it for high uLL trigger rates).
	ULLQueues int
	// Metrics, if non-nil, receives lifecycle counters and the
	// policy-labelled pause/resume duration histograms.
	Metrics *telemetry.Registry
	// Faults, if non-nil, injects deterministic failures at the
	// lifecycle sites (create, pause, resume, destroy) for robustness
	// testing (DESIGN.md §7, §10).
	Faults *faultinject.Injector
}

// New constructs a hypervisor.
func New(opts Options) (*Hypervisor, error) {
	if opts.Costs == (CostModel{}) {
		opts.Costs = DefaultCostModel()
	}
	if opts.ULLQueues < 0 {
		return nil, fmt.Errorf("%w: ULLQueues=%d", ErrBadConfig, opts.ULLQueues)
	}
	if opts.ULLQueues == 0 {
		opts.ULLQueues = 1
	}
	h := &Hypervisor{
		clock:     simtime.NewClock(),
		costs:     opts.Costs,
		sandboxes: make(map[string]*Sandbox),
		ledger:    credit2.NewLedger(),
		metrics:   opts.Metrics,
		faults:    opts.Faults,
	}
	for i := 0; i < generalCPUs; i++ {
		h.general = append(h.general, runqueue.New(false))
	}
	for i := 0; i < opts.ULLQueues; i++ {
		h.ull = append(h.ull, runqueue.New(true))
	}
	return h, nil
}

// Clock returns the hypervisor's virtual clock.
func (h *Hypervisor) Clock() *simtime.Clock { return h.clock }

// Metrics returns the attached metrics registry (possibly nil; all
// registry operations are nil-safe).
func (h *Hypervisor) Metrics() *telemetry.Registry { return h.metrics }

// Costs returns the active cost model.
func (h *Hypervisor) Costs() CostModel { return h.costs }

// Queues returns the general-purpose run queues.
func (h *Hypervisor) Queues() []*runqueue.Queue { return h.general }

// ULLQueues returns the reserved ull_runqueues.
func (h *Hypervisor) ULLQueues() []*runqueue.Queue { return h.ull }

// Accounting returns a copy of the lifecycle-work accounting.
func (h *Hypervisor) Accounting() Accounting { return h.acct }

// Ledger returns the credit2-style accounting ledger that supplies every
// entity's run-queue sort attribute.
func (h *Hypervisor) Ledger() *credit2.Ledger { return h.ledger }

// Sandboxes returns the number of live sandboxes.
func (h *Hypervisor) Sandboxes() int { return len(h.sandboxes) }

// CreateSandbox allocates a sandbox, places its vCPUs on the least-loaded
// general run queues, and marks it running. The creation cost (microVM
// boot etc.) is charged by the FaaS layer, not here, because it depends
// on the start mode.
func (h *Hypervisor) CreateSandbox(cfg Config) (*Sandbox, error) {
	if cfg.VCPUs < 1 || cfg.VCPUs > MaxVCPUs {
		return nil, fmt.Errorf("%w: vCPUs=%d (want 1..%d)", ErrBadConfig, cfg.VCPUs, MaxVCPUs)
	}
	if cfg.MemoryMB <= 0 {
		return nil, fmt.Errorf("%w: memoryMB=%d", ErrBadConfig, cfg.MemoryMB)
	}
	if err := h.faults.Check(faultinject.SiteCreate); err != nil {
		return nil, err
	}
	h.nextID++
	sb := &Sandbox{
		id:       fmt.Sprintf("sb%d", h.nextID),
		memoryMB: cfg.MemoryMB,
		state:    StateRunning,
		ull:      cfg.ULL,
	}
	for i := 0; i < cfg.VCPUs; i++ {
		v := &runqueue.Entity{
			ID:      fmt.Sprintf("%s/vcpu%d", sb.id, i),
			Kind:    runqueue.KindVCPU,
			Credit:  InitialCredit,
			Sandbox: sb.id,
		}
		if err := h.ledger.Register(v.ID); err != nil {
			return nil, err
		}
		sb.vcpus = append(sb.vcpus, v)
	}
	sb.resumedAt = h.clock.Now()
	if err := h.placeAll(sb); err != nil {
		return nil, err
	}
	h.sandboxes[sb.id] = sb
	return sb, nil
}

// DestroySandbox removes a sandbox. A running sandbox's vCPUs are pulled
// off their queues first.
func (h *Hypervisor) DestroySandbox(sb *Sandbox) error {
	if _, ok := h.sandboxes[sb.id]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSandbox, sb.id)
	}
	if err := h.faults.Check(faultinject.SiteDestroy); err != nil {
		return err
	}
	for _, pl := range sb.placements {
		if err := pl.Queue.Remove(pl.Element); err != nil {
			return fmt.Errorf("vmm: destroy %s: %w", sb.id, err)
		}
		pl.Queue.Load().RemoveEntity()
	}
	sb.placements = nil
	sb.state = StateStopped
	for _, v := range sb.vcpus {
		h.ledger.Unregister(v.ID)
	}
	delete(h.sandboxes, sb.id)
	return nil
}

// placeAll puts every vCPU on the least-loaded general queue.
func (h *Hypervisor) placeAll(sb *Sandbox) error {
	for _, v := range sb.vcpus {
		q := h.LeastLoadedQueue()
		e, _, err := q.Insert(v)
		if err != nil {
			return err
		}
		q.Load().PlaceEntity()
		sb.placements = append(sb.placements, Placement{Queue: q, Element: e})
	}
	return nil
}

// LeastLoadedQueue returns the general queue with the fewest entities
// (ties broken by lowest id), the placement policy of the vanilla path.
func (h *Hypervisor) LeastLoadedQueue() *runqueue.Queue {
	best := h.general[0]
	for _, q := range h.general[1:] {
		if q.Len() < best.Len() {
			best = q
		}
	}
	return best
}

// LeastAssignedULLQueue returns the ull_runqueue with the fewest
// registered paused sandboxes (observer count), the load-balancing rule
// of §4.1.3 when several ull_runqueues exist.
func (h *Hypervisor) LeastAssignedULLQueue() *runqueue.Queue {
	best := h.ull[0]
	for _, q := range h.ull[1:] {
		if q.ObserverCount() < best.ObserverCount() {
			best = q
		}
	}
	return best
}

// PauseReport describes one completed pause.
type PauseReport struct {
	Sandbox string
	Policy  string
	VCPUs   int
	Total   simtime.Duration
	Steps   []simtime.StopwatchResult
}

// ResumeReport describes one completed resume, including the per-step
// breakdown behind Figures 2 and 3.
type ResumeReport struct {
	Sandbox string
	Policy  string
	VCPUs   int
	Total   simtime.Duration
	Steps   []simtime.StopwatchResult
}

// TwoOpsShare returns the fraction of the resume spent in the sorted
// merge and load update (steps ④+⑤), the quantity Figure 2 plots.
func (r ResumeReport) TwoOpsShare() float64 {
	if r.Total == 0 {
		return 0
	}
	var ops simtime.Duration
	for _, s := range r.Steps {
		switch s.Label {
		case StepMerge, StepLoad, StepPSM, StepCoalesce:
			ops += s.Cost
		}
	}
	return float64(ops) / float64(r.Total)
}

// PauseContext is the common frame for pause-path implementations.
type PauseContext struct {
	h        *Hypervisor
	sb       *Sandbox
	sw       *simtime.Stopwatch
	policy   string
	done     bool
	unplaced []Placement
}

// BeginPause validates the transition and opens a pause frame. An
// injected pause fault fires here, before any state changes, so a
// failed pause always leaves the sandbox running and intact.
func (h *Hypervisor) BeginPause(sb *Sandbox, policy string) (*PauseContext, error) {
	if err := h.faults.Check(faultinject.SitePause); err != nil {
		return nil, err
	}
	if sb.state == StateStopped {
		return nil, fmt.Errorf("%w: %s", ErrStopped, sb.id)
	}
	if sb.state != StateRunning {
		return nil, fmt.Errorf("%w: %s is %s", ErrNotRunning, sb.id, sb.state)
	}
	c := h.pauseFrame
	if c == nil || !c.done {
		c = &PauseContext{sw: simtime.NewStopwatch(h.clock), done: true}
		if h.pauseFrame == nil {
			h.pauseFrame = c
		}
	}
	sw := c.sw
	sw.Reset(h.clock)
	*c = PauseContext{h: h, sb: sb, sw: sw, policy: policy}
	return c, nil
}

// Sandbox returns the sandbox being paused.
func (c *PauseContext) Sandbox() *Sandbox { return c.sb }

// Charge records a costed step on the pause stopwatch.
func (c *PauseContext) Charge(label string, d simtime.Duration) {
	c.sw.Charge(label, d)
}

// RemoveVCPUs pulls every vCPU off its run queue (the consequence of
// pausing, §3: "its virtual CPUs are removed from the CPUs run queues"),
// charging the per-vCPU removal cost and decrementing queue loads.
func (c *PauseContext) RemoveVCPUs() error {
	ran := c.h.clock.Now().Sub(c.sb.resumedAt)
	for _, pl := range c.sb.placements {
		c.Charge(StepPauseRemove, c.h.costs.PauseVCPURemove)
		if err := pl.Queue.Remove(pl.Element); err != nil {
			return fmt.Errorf("vmm: pause %s: %w", c.sb.id, err)
		}
		pl.Queue.Load().RemoveEntity()
		// Each vCPU burns the wall time it was runnable since the last
		// resume; the refreshed credit is the sort attribute the next
		// merge (vanilla or P²SM) orders by.
		ent := pl.Element.Value()
		credit, err := c.h.ledger.Burn(ent.ID, ran)
		if err != nil {
			return fmt.Errorf("vmm: pause %s: %w", c.sb.id, err)
		}
		ent.Credit = credit
	}
	// Truncate instead of dropping the backing array: the resume that
	// follows re-places the same vCPU count, so Place appends back into
	// this capacity without growing.
	c.unplaced = c.sb.placements
	c.sb.placements = c.sb.placements[:0]
	return nil
}

// Unplaced returns the placements RemoveVCPUs took off their queues, in
// placement order. Their elements now belong to no list, so a pause
// path may relink them (HORSE re-arms its P²SM source list with them)
// instead of allocating new ones. The slice shares the sandbox's
// placement storage: it is valid until the sandbox's next resume
// places a vCPU.
func (c *PauseContext) Unplaced() []Placement { return c.unplaced }

// Finish flips the sandbox to paused and returns the report, its steps
// appended to dst (nil gives the caller a fresh slice).
func (c *PauseContext) Finish(dst []simtime.StopwatchResult) (PauseReport, error) {
	if c.done {
		return PauseReport{}, errors.New("vmm: pause frame already finished")
	}
	c.done = true
	c.sb.state = StatePaused
	c.h.acct.Pauses++
	c.h.acct.PauseWork += c.sw.Total()
	if m := c.h.metrics; m != nil {
		m.Counter("vmm_pauses_total", "policy", c.policy).Inc()
		m.Histogram("vmm_pause_ns", "policy", c.policy).Observe(c.sw.Total())
	}
	return PauseReport{
		Sandbox: c.sb.id,
		Policy:  c.policy,
		VCPUs:   c.sb.NumVCPUs(),
		Total:   c.sw.Total(),
		Steps:   c.sw.AppendSteps(dst),
	}, nil
}

// ResumeContext is the common frame for resume-path implementations: it
// owns the global resume lock, the stopwatch, and the state transition.
type ResumeContext struct {
	h      *Hypervisor
	sb     *Sandbox
	sw     *simtime.Stopwatch
	policy string
	fast   bool
	done   bool
}

// BeginResume validates the transition, acquires the global resume lock,
// and charges the entry steps: ①②③ for the normal path, or the pre-armed
// fast-path entry for HORSE (fast=true). An injected resume fault fires
// here, before the lock is taken or any cost is charged, so a failed
// entry always leaves the sandbox paused and retryable.
func (h *Hypervisor) BeginResume(sb *Sandbox, policy string, fast bool) (*ResumeContext, error) {
	if err := h.faults.Check(faultinject.SiteResume); err != nil {
		return nil, err
	}
	if h.resumeLock {
		h.acct.LockWaits++
		if h.metrics != nil {
			h.metrics.Counter("vmm_resume_lock_waits_total").Inc()
		}
		return nil, fmt.Errorf("%w: resuming %s", ErrResumeBusy, sb.id)
	}
	c := h.resumeFrame
	if c == nil || !c.done {
		c = &ResumeContext{sw: simtime.NewStopwatch(h.clock), done: true}
		if h.resumeFrame == nil {
			h.resumeFrame = c
		}
	}
	sw := c.sw
	sw.Reset(h.clock)
	*c = ResumeContext{h: h, sb: sb, sw: sw, policy: policy, fast: fast}
	if fast {
		c.Charge(StepFastPath, h.costs.HorseFixed)
	} else {
		c.Charge(StepParse, h.costs.Parse)
		c.Charge(StepLock, h.costs.Lock)
		c.Charge(StepSanity, h.costs.Sanity)
	}
	if sb.state == StateStopped {
		c.done = true
		return nil, fmt.Errorf("%w: %s", ErrStopped, sb.id)
	}
	if sb.state != StatePaused {
		c.done = true
		return nil, fmt.Errorf("%w: %s is %s", ErrNotPaused, sb.id, sb.state)
	}
	h.resumeLock = true
	return c, nil
}

// Sandbox returns the sandbox being resumed.
func (c *ResumeContext) Sandbox() *Sandbox { return c.sb }

// Hypervisor returns the owning hypervisor.
func (c *ResumeContext) Hypervisor() *Hypervisor { return c.h }

// Charge records a costed step on the resume stopwatch.
func (c *ResumeContext) Charge(label string, d simtime.Duration) {
	c.sw.Charge(label, d)
}

// Place records that a vCPU now sits on the given queue.
func (c *ResumeContext) Place(q *runqueue.Queue, e *runqueue.Element) {
	c.sb.placements = append(c.sb.placements, Placement{Queue: q, Element: e})
}

// Abort releases the lock without changing sandbox state.
func (c *ResumeContext) Abort() {
	if !c.done {
		c.done = true
		c.h.resumeLock = false
	}
}

// Finish charges the exit step (⑥ on the normal path), flips the sandbox
// to running, releases the lock, and returns the breakdown report, its
// steps appended to dst (nil gives the caller a fresh slice).
func (c *ResumeContext) Finish(dst []simtime.StopwatchResult) (ResumeReport, error) {
	if c.done {
		return ResumeReport{}, errors.New("vmm: resume frame already finished")
	}
	if len(c.sb.placements) != len(c.sb.vcpus) {
		c.Abort()
		return ResumeReport{}, fmt.Errorf("vmm: resume %s placed %d of %d vCPUs",
			c.sb.id, len(c.sb.placements), len(c.sb.vcpus))
	}
	if !c.fast {
		c.Charge(StepFinalize, c.h.costs.Finalize)
	}
	c.done = true
	c.sb.state = StateRunning
	c.sb.resumedAt = c.h.clock.Now()
	c.h.resumeLock = false
	c.h.acct.Resumes++
	c.h.acct.ResumeWork += c.sw.Total()
	if m := c.h.metrics; m != nil {
		m.Counter("vmm_resumes_total", "policy", c.policy).Inc()
		m.Histogram("vmm_resume_ns", "policy", c.policy).Observe(c.sw.Total())
	}
	return ResumeReport{
		Sandbox: c.sb.id,
		Policy:  c.policy,
		VCPUs:   c.sb.NumVCPUs(),
		Total:   c.sw.Total(),
		Steps:   c.sw.AppendSteps(dst),
	}, nil
}

// PolicyVanilla names the unmodified resume path.
const PolicyVanilla = "vanil"

// AppendPause is Pause with the report's steps appended to dst, so a
// caller that reuses one buffer for reports it does not keep pays no
// allocation for them.
func (h *Hypervisor) AppendPause(dst []simtime.StopwatchResult, sb *Sandbox) (PauseReport, error) {
	ctx, err := h.BeginPause(sb, PolicyVanilla)
	if err != nil {
		return PauseReport{}, err
	}
	if err := ctx.RemoveVCPUs(); err != nil {
		return PauseReport{}, err
	}
	return ctx.Finish(dst)
}

// AppendResume is Resume with the report's steps appended to dst, as
// AppendPause.
func (h *Hypervisor) AppendResume(dst []simtime.StopwatchResult, sb *Sandbox) (ResumeReport, error) {
	ctx, err := h.BeginResume(sb, PolicyVanilla, false)
	if err != nil {
		return ResumeReport{}, err
	}
	for i, v := range sb.vcpus {
		q := h.LeastLoadedQueue()
		mergeCost := h.costs.MergeWarm
		if i == 0 {
			mergeCost = h.costs.MergeCold
		}
		ctx.Charge(StepMerge, mergeCost)
		e, _, err := q.Insert(v)
		if err != nil {
			ctx.Abort()
			return ResumeReport{}, err
		}
		ctx.Place(q, e)
		ctx.Charge(StepLoad, h.costs.LoadUpdate)
		q.Load().PlaceEntity()
	}
	return ctx.Finish(dst)
}
