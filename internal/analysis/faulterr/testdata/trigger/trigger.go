// Package trigger exercises the faulterr analyzer: the error result of
// every fault-injectable call must reach a check or a return on every
// control-flow path.
package trigger

import "errors"

type sandbox struct{}

type hypervisor struct{}

func (h *hypervisor) CreateSandbox(cfg int) (*sandbox, error) { return nil, nil }
func (h *hypervisor) DestroySandbox(sb *sandbox) error        { return nil }
func (h *hypervisor) Pause(sb *sandbox) (int, error)          { return 0, nil }
func (h *hypervisor) Resume(sb *sandbox) (int, error)         { return 0, nil }

func log(args ...any) {}

// Unchecked checks the pause error, then overwrites err with the
// destroy error and never reads it: flagged at the second binding.
func (h *hypervisor) Unchecked(sb *sandbox) {
	_, err := h.Pause(sb)
	if err != nil {
		return
	}
	err = h.DestroySandbox(sb) // want `error from DestroySandbox bound to "err" does not reach a check or a return on every path`
}

// Goroutine fires and forgets the destroy: the error is unobservable.
func (h *hypervisor) Goroutine(sb *sandbox) {
	go h.DestroySandbox(sb) // want `error result of DestroySandbox is discarded`
}

// Discarded throws the result away outright.
func (h *hypervisor) Discarded(sb *sandbox) {
	h.DestroySandbox(sb)     // want `error result of DestroySandbox is discarded`
	_ = h.DestroySandbox(sb) // want `error result of DestroySandbox is discarded`
}

// BlankTuple discards the trailing error of a tuple result.
func (h *hypervisor) BlankTuple(sb *sandbox) {
	_, _ = h.Pause(sb)           // want `error result of Pause is discarded`
	sb2, _ := h.CreateSandbox(1) // want `error result of CreateSandbox is discarded`
	_ = sb2
}

// OneArmChecks checks the error on only one branch arm — the exact
// multi-path shape of the PR 3 Reap bug.
func (h *hypervisor) OneArmChecks(sb *sandbox, verbose bool) {
	_, err := h.Resume(sb) // want `error from Resume bound to "err" does not reach a check or a return on every path`
	if verbose {
		if err != nil {
			log(err)
		}
	}
}

// EveryArmChecks reads the error on both arms: clean.
func (h *hypervisor) EveryArmChecks(sb *sandbox, verbose bool) {
	_, err := h.Resume(sb)
	if verbose {
		log("resume", err)
	} else if err != nil {
		log(err)
	}
}

// Overwritten rebinds err while the pause error is still unread.
func (h *hypervisor) Overwritten(sb *sandbox) error {
	_, err := h.Pause(sb) // want `error from Pause bound to "err" is overwritten before being checked`
	_, err = h.Resume(sb)
	return err
}

// Propagated returns the tuple directly: the caller owns the error.
func (h *hypervisor) Propagated(cfg int) (*sandbox, error) {
	return h.CreateSandbox(cfg)
}

// CheckedInDefer reads the error inside a deferred closure: clean.
func (h *hypervisor) CheckedInDefer(sb *sandbox) {
	_, err := h.Pause(sb)
	defer func() {
		if err != nil {
			log(err)
		}
	}()
}

// Wrapped hands the error to another call, which counts as a read.
func (h *hypervisor) Wrapped(sb *sandbox) error {
	derr := h.DestroySandbox(sb)
	return errors.Join(derr, nil)
}

// LoopReassigns rebinds the error every iteration without reading the
// previous one, and reads the last one only when verbose.
func (h *hypervisor) LoopReassigns(sbs []*sandbox, verbose bool) {
	var err error
	for _, sb := range sbs {
		err = h.DestroySandbox(sb) // want `error from DestroySandbox bound to "err" is overwritten before being checked` `error from DestroySandbox bound to "err" does not reach a check or a return on every path`
	}
	if verbose {
		log(err)
	}
}

// LoopJoins accumulates every error: clean.
func (h *hypervisor) LoopJoins(sbs []*sandbox) error {
	var sweep error
	for _, sb := range sbs {
		if err := h.DestroySandbox(sb); err != nil {
			sweep = errors.Join(sweep, err)
		}
	}
	return sweep
}

// Allowed shows the escape hatch: the reason is mandatory.
func (h *hypervisor) Allowed(sb *sandbox) {
	//horselint:allow-faulterr teardown of an already-poisoned sandbox; loss counted by caller
	_ = h.DestroySandbox(sb)
}

// Shadowed checks an inner err that shadows the outer one; the outer
// destroy error is still unread on the early return.
func (h *hypervisor) Shadowed(sb *sandbox, verbose bool) {
	err := h.DestroySandbox(sb) // want `error from DestroySandbox bound to "err" does not reach a check or a return on every path`
	if _, err := h.Pause(sb); err != nil {
		return
	}
	if verbose {
		log(err)
	}
}
