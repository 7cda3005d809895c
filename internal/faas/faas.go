// Package faas implements the Function-as-a-Service platform layer of the
// reproduction: function registry, trigger routing, warm-sandbox pools
// with keep-alive, provisioned concurrency, and the four start modes the
// paper evaluates (cold, restore, warm, and HORSE).
//
// The mode taxonomy follows §2 and §5.3:
//
//   - Cold: create a sandbox from scratch (microVM boot + runtime init,
//     Table 1: 1.5×10⁶ µs).
//   - Restore: restore a FaaSnap-style snapshot (Table 1: 1300 µs).
//   - Warm: reuse a paused sandbox via the platform dispatch path plus
//     the vanilla resume (Table 1: 1.1 µs for 1 vCPU).
//   - Horse: reuse a paused uLL sandbox via the pre-armed fast path; the
//     trigger rings the resume doorbell directly, so initialization is
//     just the ≈150 ns hot resume.
package faas

import (
	"errors"
	"fmt"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/snapshot"
	"github.com/horse-faas/horse/internal/telemetry"
	"github.com/horse-faas/horse/internal/trigtrace"
	"github.com/horse-faas/horse/internal/vmm"
	"github.com/horse-faas/horse/internal/workload"
)

// StartMode selects how a trigger obtains its sandbox.
type StartMode int

// Start modes.
const (
	// ModeCold creates the sandbox from scratch.
	ModeCold StartMode = iota + 1
	// ModeRestore restores it from a snapshot.
	ModeRestore
	// ModeWarm resumes a paused sandbox through the vanilla path.
	ModeWarm
	// ModeHorse resumes a paused uLL sandbox through the HORSE fast path.
	ModeHorse
)

// String returns the mode's name as used in the paper's figures.
func (m StartMode) String() string {
	switch m {
	case ModeCold:
		return "cold"
	case ModeRestore:
		return "restore"
	case ModeWarm:
		return "warm"
	case ModeHorse:
		return "horse"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Errors reported by the platform.
var (
	ErrUnknownFunction = errors.New("faas: unknown function")
	ErrAlreadyDeployed = errors.New("faas: function already deployed")
	ErrNoWarmSandbox   = errors.New("faas: no warm sandbox available")
	ErrUnknownMode     = errors.New("faas: unknown start mode")
	ErrNotULLFunction  = errors.New("faas: HORSE mode requires a uLL deployment")
	// ErrInvokeFailed wraps a function-body failure. The serving sandbox
	// is destroyed — its guest state died mid-invocation — and the error
	// is not degraded to a colder mode: re-running user code would
	// double-execute it.
	ErrInvokeFailed = errors.New("faas: function invocation failed")
	// ErrRepoolFailed marks a sandbox that served its invocation but
	// could not be re-paused into the warm pool and was destroyed. The
	// invocation itself still succeeds.
	ErrRepoolFailed = errors.New("faas: could not return sandbox to warm pool")
)

// SandboxSpec sizes the sandboxes of a deployment.
type SandboxSpec struct {
	VCPUs    int
	MemoryMB int
}

// snapshotWorkingSet is the fraction of a deployment's pages a
// restore-mode snapshot maps eagerly (FaaSnap-style working set).
const snapshotWorkingSet = 0.05

type pooledSandbox struct {
	sb       *vmm.Sandbox
	policy   core.Policy
	pausedAt simtime.Time
}

// Deployment is one registered function plus its sandbox pool.
type Deployment struct {
	fn       workload.Function
	app      workload.Appender // fn as an Appender; nil when fn has only Invoke
	spec     SandboxSpec
	snapshot *snapshot.Snapshot
	pool     []pooledSandbox
	// missWarm and missHorse are the ErrNoWarmSandbox errors a warm or
	// HORSE pool miss returns, built on the first such miss (missError).
	missWarm, missHorse error
}

// missError returns the error of a pool miss under mode (ModeWarm or
// ModeHorse), built once per deployment and mode so a miss formats
// nothing.
func (d *Deployment) missError(mode StartMode) error {
	miss := &d.missWarm
	if mode == ModeHorse {
		miss = &d.missHorse
	}
	if *miss == nil {
		*miss = fmt.Errorf("%w: %q (%s)", ErrNoWarmSandbox, d.fn.Name(), mode)
	}
	return *miss
}

// WarmPoolSize returns how many paused sandboxes are ready.
func (d *Deployment) WarmPoolSize() int { return len(d.pool) }

// PoolCount returns how many pooled sandboxes are armed for policy.
func (d *Deployment) PoolCount(policy core.Policy) int {
	n := 0
	for _, ps := range d.pool {
		if ps.policy == policy {
			n++
		}
	}
	return n
}

// Invocation is the outcome of one trigger.
type Invocation struct {
	Function string
	Mode     StartMode
	// Init is the sandbox initialization time: everything between the
	// trigger and the function starting to execute.
	Init simtime.Duration
	// Exec is the function execution time.
	Exec simtime.Duration
	// Output is the function's real output payload.
	Output []byte
	// Sandbox is the id of the sandbox that served the invocation.
	Sandbox string
}

// Total returns init + exec.
func (i Invocation) Total() simtime.Duration { return i.Init + i.Exec }

// InitPercent returns the sandbox-initialization share of the pipeline —
// the quantity Figures 1 and 4 plot.
func (i Invocation) InitPercent() float64 {
	total := i.Total()
	if total == 0 {
		return 0
	}
	return 100 * float64(i.Init) / float64(total)
}

// Platform is the FaaS control plane over one hypervisor.
type Platform struct {
	h      *vmm.Hypervisor
	engine *core.Engine
	snaps  *snapshot.Store
	clock  *simtime.Clock

	deployments map[string]*Deployment

	faults   *faultinject.Injector
	fallback FallbackConfig
	// rec traces every trigger a Replay fires (nil traces none).
	rec *trigtrace.Recorder

	// inst holds the prebound handles for the per-trigger instruments.
	// Binding once at construction keeps the trigger hot path free of
	// the registry's name-format + map-lookup cost (~344 ns/5 allocs per
	// increment, BenchmarkRegistryCounter); a nil registry prebinds nil
	// handles, whose methods no-op.
	inst platformInstruments

	// steps is the one buffer the platform's pause and resume reports
	// append their steps into: the platform keeps no report, so a
	// trigger allocates none.
	steps []simtime.StopwatchResult
}

// platformInstruments are the per-trigger metric handles, prebound at
// platform construction.
type platformInstruments struct {
	// triggers is indexed by StartMode (ModeCold..ModeHorse).
	triggers   [ModeHorse + 1]*telemetry.Counter
	poolHits   *telemetry.Counter
	poolMisses *telemetry.Counter
	retries    *telemetry.Counter
	poolSize   *telemetry.Gauge
}

// bind prebinds the hot-path handles against m (nil-safe).
func (pi *platformInstruments) bind(m *telemetry.Registry) {
	for mode := ModeCold; mode <= ModeHorse; mode++ {
		pi.triggers[mode] = m.Counter("faas_triggers_total", "mode", mode.String())
	}
	pi.poolHits = m.Counter("faas_warm_pool_hits_total")
	pi.poolMisses = m.Counter("faas_warm_pool_misses_total")
	pi.retries = m.Counter("faas_retries_total")
	pi.poolSize = m.Gauge("faas_warm_pool_size")
}

// Options configures a Platform.
type Options struct {
	// ULLQueues is the number of reserved ull_runqueues (default 1).
	// Raise it for high uLL trigger rates (§4.1.3).
	ULLQueues int
	// Costs overrides the hypervisor cost model (zero selects
	// vmm.DefaultCostModel; vmm.XenCostModel selects the Xen flavor).
	Costs vmm.CostModel
	// Tracer, if non-nil, records one trigger trace per arrival that
	// Replay fires; each Replay claims it for its whole run.
	Tracer *trigtrace.Recorder
	// Metrics is handed to the platform's hypervisor.
	Metrics *telemetry.Registry
	// Faults is the deterministic fault injector threaded through both
	// the hypervisor (create/destroy/pause/resume sites) and the trigger
	// path (restore/invoke sites); nil injects nothing.
	Faults *faultinject.Injector
	// Fallback configures graceful degradation of Trigger (DESIGN.md
	// §10); the zero value disables it.
	Fallback FallbackConfig
}

// New builds a platform.
func New(opts Options) (*Platform, error) {
	h, err := vmm.New(vmm.Options{
		ULLQueues: opts.ULLQueues,
		Costs:     opts.Costs,
		Metrics:   opts.Metrics,
		Faults:    opts.Faults,
	})
	if err != nil {
		return nil, err
	}
	p := &Platform{
		h:           h,
		engine:      core.NewEngine(h),
		snaps:       snapshot.NewStore(h.Clock()),
		clock:       h.Clock(),
		deployments: make(map[string]*Deployment),
		faults:      opts.Faults,
		fallback:    opts.Fallback,
		rec:         opts.Tracer,
	}
	p.inst.bind(h.Metrics())
	return p, nil
}

// Hypervisor returns the underlying hypervisor.
func (p *Platform) Hypervisor() *vmm.Hypervisor { return p.h }

// Engine returns the HORSE engine.
func (p *Platform) Engine() *core.Engine { return p.engine }

// Clock returns the platform's virtual clock.
func (p *Platform) Clock() *simtime.Clock { return p.clock }

// Register deploys a function.
func (p *Platform) Register(fn workload.Function, spec SandboxSpec) (*Deployment, error) {
	if fn == nil {
		return nil, errors.New("faas: nil function")
	}
	if _, ok := p.deployments[fn.Name()]; ok {
		return nil, fmt.Errorf("%w: %q", ErrAlreadyDeployed, fn.Name())
	}
	if spec.VCPUs < 1 || spec.MemoryMB <= 0 {
		return nil, fmt.Errorf("faas: invalid spec %+v", spec)
	}
	d := &Deployment{fn: fn, spec: spec}
	d.app, _ = fn.(workload.Appender)
	p.deployments[fn.Name()] = d
	return d, nil
}

// Deployment looks up a deployment by function name.
func (p *Platform) Deployment(name string) (*Deployment, error) {
	d, ok := p.deployments[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFunction, name)
	}
	return d, nil
}

// sandboxConfig derives the vmm config for a deployment.
func (d *Deployment) sandboxConfig(ull bool) vmm.Config {
	return vmm.Config{VCPUs: d.spec.VCPUs, MemoryMB: d.spec.MemoryMB, ULL: ull}
}

// Provision pre-creates n paused sandboxes for the deployment — the
// provisioned-concurrency option of Azure Premium Functions / Lambda
// Provisioned Concurrency the paper describes. policy selects the resume
// path the pool is armed for (core.Vanilla arms the plain warm path;
// core.Horse arms the fast path and flags the sandboxes uLL).
func (p *Platform) Provision(name string, n int, policy core.Policy) error {
	d, err := p.Deployment(name)
	if err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("faas: provision count %d", n)
	}
	if policy != core.Vanilla && !d.fn.Category().ULL() {
		return fmt.Errorf("%w: %q is %v", ErrNotULLFunction, name, d.fn.Category())
	}
	// Sandboxes pooled before a mid-loop failure stay pooled, so the
	// gauge must be refreshed on every exit path.
	defer p.updatePoolGauge()
	for i := 0; i < n; i++ {
		sb, err := p.h.CreateSandbox(d.sandboxConfig(policy != core.Vanilla))
		if err != nil {
			return err
		}
		if err := p.pause(sb, policy); err != nil {
			// The sandbox never reached the pool; destroy it rather than
			// leaking it running.
			if derr := p.h.DestroySandbox(sb); derr != nil {
				err = errors.Join(err, derr)
			}
			return err
		}
		d.pool = append(d.pool, pooledSandbox{sb: sb, policy: policy, pausedAt: p.clock.Now()})
	}
	return nil
}

// EnsureSnapshot cuts the deployment's restore-mode snapshot if missing.
func (p *Platform) EnsureSnapshot(name string) error {
	d, err := p.Deployment(name)
	if err != nil {
		return err
	}
	if d.snapshot != nil {
		return nil
	}
	snap, err := p.snaps.Create(d.sandboxConfig(false), snapshotWorkingSet)
	if err != nil {
		return err
	}
	d.snapshot = snap
	return nil
}

// takeWarm pops a pooled sandbox armed with the wanted policy. The
// removal shifts in place and truncates: the pool's backing array is
// reused, so the warm path never allocates here.
//
//horselint:hotpath
func (d *Deployment) takeWarm(policy core.Policy) (pooledSandbox, bool) {
	for i, ps := range d.pool {
		if ps.policy == policy {
			copy(d.pool[i:], d.pool[i+1:])
			d.pool = d.pool[:len(d.pool)-1]
			return ps, true
		}
	}
	return pooledSandbox{}, false
}

// Trigger invokes a function under the given start mode and returns the
// invocation record. The returned Init and Exec durations are virtual
// time; Output is the function's real result on the real payload.
//
// With fallback enabled (Options.Fallback) a failed sandbox acquisition
// degrades along the mode chain horse → warm → restore → cold,
// retrying resume-lock contention in place with exponential
// virtual-time backoff before each hop. The returned
// Invocation.Mode is the mode that actually served. Function-body
// failures (ErrInvokeFailed) never degrade: re-running user code on a
// colder sandbox would double-execute it.
func (p *Platform) Trigger(name string, mode StartMode, payload []byte) (Invocation, error) {
	return p.TriggerTraced(trigtrace.Context{}, nil, name, mode, payload)
}

// TriggerTraced is Trigger carrying a trigger trace context: each
// attempt's init, invoke, and re-pool phases are recorded as typed
// stages, failed attempts collapse into single failed-attempt spans,
// and retry backoff is attributed explicitly. An inert context (the
// zero value) and a nil dst make this identical to Trigger.
//
// dst is the buffer the function's output is appended to when the
// function is a workload.Appender; Invocation.Output then aliases dst,
// or its grown replacement when dst had too little room. A function
// with only Invoke ignores dst and returns a fresh output.
func (p *Platform) TriggerTraced(tc trigtrace.Context, dst []byte, name string, mode StartMode, payload []byte) (Invocation, error) {
	d, err := p.Deployment(name)
	if err != nil {
		return Invocation{}, err
	}
	if mode >= ModeCold && mode <= ModeHorse {
		p.inst.triggers[mode].Inc()
	}

	chain := p.fallback.chainFrom(mode)
	var lastErr error
	for i, attempted := range chain {
		if i > 0 {
			p.countFallback(chain[i-1], attempted)
		}
		inv, aerr := p.attemptWithRetry(tc, dst, d, name, attempted, payload)
		if aerr == nil {
			return inv, nil
		}
		if errors.Is(aerr, ErrUnknownMode) {
			// A caller error, not a runtime failure: neither counted nor
			// degraded.
			return Invocation{}, aerr
		}
		p.countTriggerFailure(attempted, aerr)
		lastErr = aerr
		if errors.Is(aerr, ErrInvokeFailed) {
			break
		}
	}
	return Invocation{}, lastErr
}

// attempt runs one trigger attempt under exactly one start mode. It
// records the attempt's stages on tc and leaves the warm pool and its
// gauge consistent on every exit path: a retryably-failed resume
// re-pools the still-paused sandbox, every other sandbox casualty is
// destroyed.
func (p *Platform) attempt(tc trigtrace.Context, dst []byte, d *Deployment, name string, mode StartMode, payload []byte) (Invocation, error) {
	if mode == ModeRestore {
		// Cutting the snapshot is a deploy-time operation; it must not
		// count toward the trigger's initialization window.
		if err := p.EnsureSnapshot(name); err != nil {
			return Invocation{}, err
		}
	}
	start := p.clock.Now()
	modeStr := mode.String()

	var (
		sb     *vmm.Sandbox
		err    error
		policy = core.Vanilla
	)
	switch mode {
	case ModeCold:
		p.clock.Advance(p.h.Costs().ColdInit)
		sb, err = p.h.CreateSandbox(d.sandboxConfig(false))
		if err != nil {
			return Invocation{}, err
		}
		tc.RecordOn(trigtrace.StageColdInit, start, p.clock.Now().Sub(start), "", modeStr, "")
	case ModeRestore:
		if err := p.faults.Check(faultinject.SiteRestore); err != nil {
			return Invocation{}, err
		}
		sb, err = p.snaps.Restore(p.h, d.snapshot)
		if err != nil {
			return Invocation{}, err
		}
		tc.RecordOn(trigtrace.StageRestore, start, p.clock.Now().Sub(start), "", modeStr, "")
	case ModeWarm:
		ps, ok := d.takeWarm(core.Vanilla)
		p.recordPoolLookup(ok)
		if !ok {
			// No dispatch happened, so no dispatch time is charged: a
			// miss must leave the clock untouched.
			return Invocation{}, d.missError(mode)
		}
		tc.RecordOn(trigtrace.StagePoolTake, start, 0, "", modeStr, "vanilla")
		p.clock.Advance(p.h.Costs().WarmDispatch)
		dispatched := p.clock.Now()
		tc.RecordOn(trigtrace.StageDispatch, start, dispatched.Sub(start), "", modeStr, "")
		sb = ps.sb
		if rerr := p.resume(sb, core.Vanilla); rerr != nil {
			return Invocation{}, p.releaseFailedResume(d, ps, rerr)
		}
		tc.RecordOn(trigtrace.StageResume, dispatched, p.clock.Now().Sub(dispatched), "", modeStr, "")
	case ModeHorse:
		ps, ok := d.takeWarm(core.Horse)
		p.recordPoolLookup(ok)
		if !ok {
			return Invocation{}, d.missError(mode)
		}
		tc.RecordOn(trigtrace.StagePoolTake, start, 0, "", modeStr, "horse")
		sb = ps.sb
		policy = core.Horse
		if rerr := p.resume(sb, core.Horse); rerr != nil {
			return Invocation{}, p.releaseFailedResume(d, ps, rerr)
		}
		tc.RecordOn(trigtrace.StageResume, start, p.clock.Now().Sub(start), "", modeStr, "")
	default:
		return Invocation{}, fmt.Errorf("%w: %d", ErrUnknownMode, int(mode))
	}

	ready := p.clock.Now()

	// Execute the real function logic and charge the calibrated virtual
	// execution time.
	var (
		output    []byte
		invokeErr error
	)
	if d.app != nil {
		output, invokeErr = d.app.AppendInvoke(dst, payload)
	} else {
		output, invokeErr = d.fn.Invoke(payload)
	}
	if invokeErr == nil {
		invokeErr = p.faults.Check(faultinject.SiteInvoke)
	}
	p.clock.Advance(d.fn.VirtualDuration())
	end := p.clock.Now()
	tc.RecordOn(trigtrace.StageInvoke, ready, end.Sub(ready), "", modeStr, "")

	if invokeErr != nil {
		// The guest died mid-invocation; its state is suspect, so it must
		// not poison the warm pool.
		ierr := fmt.Errorf("%w: %q: %w", ErrInvokeFailed, name, invokeErr)
		p.engine.Forget(sb)
		if derr := p.h.DestroySandbox(sb); derr != nil {
			ierr = errors.Join(ierr, derr)
		}
		p.updatePoolGauge()
		return Invocation{}, ierr
	}

	inv := Invocation{
		Function: name,
		Mode:     mode,
		Init:     ready.Sub(start),
		Exec:     end.Sub(ready),
		Output:   output,
		Sandbox:  sb.ID(),
	}

	// Return the sandbox to the pool, re-armed for the same path. A
	// sandbox that served its invocation but cannot re-arm is destroyed;
	// the invocation itself still succeeded, so only the loss is counted.
	if perr := p.pause(sb, policy); perr != nil {
		p.countTriggerFailure(mode, fmt.Errorf("%w: %q: %w", ErrRepoolFailed, name, perr))
		p.engine.Forget(sb)
		if derr := p.h.DestroySandbox(sb); derr != nil {
			// The sandbox is already forgotten and off the pool either
			// way; a destroy failure on top of the re-pool failure is a
			// second loss on the same trigger, counted like the first.
			p.countTriggerFailure(mode, fmt.Errorf("%w: %q: %w", ErrRepoolFailed, name, derr))
		}
	} else {
		d.pool = append(d.pool, pooledSandbox{sb: sb, policy: policy, pausedAt: p.clock.Now()})
	}
	tc.RecordOn(trigtrace.StageRepool, end, p.clock.Now().Sub(end), "", modeStr, "")
	p.updatePoolGauge()
	return inv, nil
}

// pause pauses sb under policy, its report's steps discarded into the
// platform's reused buffer.
func (p *Platform) pause(sb *vmm.Sandbox, policy core.Policy) error {
	report, err := p.engine.AppendPause(p.steps[:0], sb, policy)
	if err == nil {
		p.steps = report.Steps
	}
	return err
}

// resume resumes sb under policy, as pause.
func (p *Platform) resume(sb *vmm.Sandbox, policy core.Policy) error {
	report, err := p.engine.AppendResume(p.steps[:0], sb, policy)
	if err == nil {
		p.steps = report.Steps
	}
	return err
}

// releaseFailedResume puts a take-then-failed warm sandbox back where it
// belongs: re-pooled when the resume failed on entry (the sandbox is
// still paused and prepared — lock contention or an injected entry
// fault), destroyed when the resume poisoned it.
func (p *Platform) releaseFailedResume(d *Deployment, ps pooledSandbox, rerr error) error {
	if resumeRetryable(rerr) {
		d.pool = append(d.pool, ps)
		p.updatePoolGauge()
		return rerr
	}
	p.engine.Forget(ps.sb)
	if derr := p.h.DestroySandbox(ps.sb); derr != nil {
		rerr = errors.Join(rerr, derr)
	}
	p.updatePoolGauge()
	return rerr
}

// recordPoolLookup counts a warm-pool hit or miss and refreshes the pool
// gauge after a successful take.
func (p *Platform) recordPoolLookup(hit bool) {
	if hit {
		p.inst.poolHits.Inc()
		p.updatePoolGauge()
	} else {
		p.inst.poolMisses.Inc()
	}
}

// updatePoolGauge publishes the platform-wide warm-pool size.
func (p *Platform) updatePoolGauge() {
	if p.inst.poolSize == nil {
		return
	}
	total := 0
	for _, d := range p.deployments {
		total += len(d.pool)
	}
	p.inst.poolSize.Set(int64(total))
}
