package faas

import (
	"errors"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/trigtrace"
	"github.com/horse-faas/horse/internal/vmm"
)

// Graceful degradation of the trigger path (DESIGN.md §10).
//
// A warm-path failure on a production FaaS platform does not abort the
// request — it falls off the warm cliff onto a slower start mode
// ("How Low Can You Go?" quantifies exactly that cliff). The fallback
// chain makes the cliff explicit, bounded, and measured: each trigger
// walks the default mode chain from its requested mode toward
// colder modes, every hop is counted in faas_fallbacks_total{from,to},
// and every failed attempt in faas_trigger_failures_total{site}.
// Resume-lock contention — the one transient failure in the model — is
// retried in place with exponential virtual-time backoff before the
// chain advances, counted in faas_retries_total.

// fallbackChain orders the start modes hottest to coldest, the
// direction a degrading trigger walks. It is an array so that no caller
// can reorder degradation: chainFrom hands out slices of it.
var fallbackChain = [...]StartMode{ModeHorse, ModeWarm, ModeRestore, ModeCold}

// Fallback retry defaults.
const (
	// DefaultMaxRetries bounds in-place retries of a contended resume
	// before the chain advances to the next mode.
	DefaultMaxRetries = 3
	// DefaultRetryBackoff is the first retry's virtual-time backoff;
	// attempt k (0-based) waits DefaultRetryBackoff·2ᵏ. The base is of
	// the same order as the vanilla resume it is waiting out.
	DefaultRetryBackoff = 500 * simtime.Nanosecond
)

// FallbackConfig configures graceful degradation of Platform.Trigger.
// The zero value disables it: a trigger attempts exactly its requested
// mode and reports the first failure, the strict pre-degradation
// behavior.
type FallbackConfig struct {
	// Enabled turns the chain and the retry loop on: a trigger starts at
	// its requested mode's position in horse → warm → restore → cold
	// and walks right on failure, retrying a resume-lock-contended
	// attempt up to DefaultMaxRetries times with backoff doubling from
	// DefaultRetryBackoff.
	Enabled bool
}

// singleChains holds one static single-element chain per mode so the
// no-fallback paths of chainFrom return without allocating per trigger.
var singleChains = [ModeHorse + 1][1]StartMode{
	ModeCold:    {ModeCold},
	ModeRestore: {ModeRestore},
	ModeWarm:    {ModeWarm},
	ModeHorse:   {ModeHorse},
}

// singleChain returns the static one-element chain for mode.
//
//horselint:hotpath
func singleChain(mode StartMode) []StartMode {
	if mode >= ModeCold && mode <= ModeHorse {
		return singleChains[mode][:]
	}
	// TriggerTraced rejects out-of-enum modes before any chain is
	// built, so this defensive allocation never runs per trigger.
	//horselint:allow-hotpath defensive slice for an out-of-enum mode; unreachable from the trigger path
	return []StartMode{mode}
}

// chainFrom returns the mode sequence a trigger requested under mode
// should attempt, in order.
//
//horselint:hotpath
func (c FallbackConfig) chainFrom(mode StartMode) []StartMode {
	if c.Enabled {
		for i, m := range fallbackChain {
			if m == mode {
				return fallbackChain[i:]
			}
		}
	}
	return singleChain(mode)
}

// attemptWithRetry runs one chain position: the attempt itself plus the
// bounded backoff retries of resume-lock contention. Only contention
// (vmm.ErrResumeBusy, possibly injected) retries — an entry-failed
// resume leaves the sandbox paused and re-pooled, so the retry sees the
// same pool state plus the backoff's worth of virtual time.
//
// Trace bookkeeping follows attempt scope: stages recorded by an
// attempt that fails are collapsed into a single failed-attempt span
// covering exactly the virtual time the attempt consumed, so failed
// work never leaks into the serving-path sums; each backoff wait is
// recorded as its own retry-backoff span.
func (p *Platform) attemptWithRetry(inv *Invocation, tc trigtrace.Context, dst []byte, d *Deployment, mode StartMode, payload []byte) error {
	retries := 0
	if p.fallback.Enabled {
		retries = DefaultMaxRetries
	}
	backoff := DefaultRetryBackoff
	for attempt := 0; ; attempt++ {
		mark := tc.Mark()
		attemptStart := p.clock.Now()
		err := p.attempt(inv, tc, dst, d, mode, payload)
		if err != nil {
			tc.CollapseFailed(mark, attemptStart, p.clock.Now().Sub(attemptStart),
				"", mode.String(), failureSite(mode, err))
		}
		if err == nil || attempt >= retries || !errors.Is(err, vmm.ErrResumeBusy) {
			return err
		}
		p.inst.retries.Inc()
		tc.RecordOn(trigtrace.StageRetryBackoff, p.clock.Now(), backoff, "", mode.String(), "")
		p.clock.Advance(backoff)
		backoff *= 2
	}
}

// countTriggerFailure records one failed attempt against its site.
func (p *Platform) countTriggerFailure(mode StartMode, err error) {
	m := p.h.Metrics()
	if m == nil {
		return
	}
	m.Counter("faas_trigger_failures_total", "site", failureSite(mode, err)).Inc()
}

// countFallback records one hop along the degradation chain.
func (p *Platform) countFallback(from, to StartMode) {
	if m := p.h.Metrics(); m != nil {
		m.Counter("faas_fallbacks_total", "from", from.String(), "to", to.String()).Inc()
	}
}

// failureSite classifies a failed attempt for the
// faas_trigger_failures_total{site} counter. Injected faults carry
// their site; everything else is inferred from sentinel errors and the
// attempted mode.
func failureSite(mode StartMode, err error) string {
	// A pool miss carries no injected fault, and is checked first: the
	// errors.As target below escapes, so the miss path would allocate.
	if errors.Is(err, ErrNoWarmSandbox) {
		return "pool"
	}
	var fe *faultinject.Error
	if errors.As(err, &fe) {
		return string(fe.Site)
	}
	switch {
	case errors.Is(err, ErrInvokeFailed):
		return string(faultinject.SiteInvoke)
	case errors.Is(err, ErrRepoolFailed):
		return string(faultinject.SitePause)
	}
	switch mode {
	case ModeCold:
		return string(faultinject.SiteCreate)
	case ModeRestore:
		return string(faultinject.SiteRestore)
	case ModeWarm, ModeHorse:
		return string(faultinject.SiteResume)
	}
	return "other"
}

// resumeRetryable reports whether a failed resume left the sandbox
// paused, prepared, and safe to return to the warm pool. Entry
// failures (lock contention, faults injected before the resume frame
// opens) are retryable; a poisoned resume — or anything else — is not,
// and the sandbox must be destroyed.
func resumeRetryable(err error) bool {
	if errors.Is(err, core.ErrPoisoned) {
		return false
	}
	return errors.Is(err, vmm.ErrResumeBusy) || errors.Is(err, faultinject.ErrInjected)
}
