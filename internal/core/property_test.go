package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/vmm"
)

// sandboxRec tracks one live sandbox and the policy it was paused under.
type sandboxRec struct {
	sb     *vmm.Sandbox
	paused bool
	policy Policy
}

// TestEngineLifecycleProperty drives random interleavings of sandbox
// create / pause / resume / destroy operations across all four policies,
// with virtual time advancing (so credits evolve and epochs reset), and
// checks after every step that:
//
//   - every ull_runqueue remains sorted,
//   - every prepared P²SM structure validates against its queue,
//   - running sandboxes have exactly one placement per vCPU,
//   - the ull_runqueues hold exactly one observer per prepared P²SM
//     structure (a consumed, pooled precompute observes nothing),
//   - the engine never leaks prepared state for destroyed sandboxes.
func TestEngineLifecycleProperty(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := vmm.New(vmm.Options{ULLQueues: 2})
		if err != nil {
			return false
		}
		e := NewEngine(h)
		policies := []Policy{Vanilla, PPSM, Coal, Horse}
		var live []*sandboxRec

		check := func() bool {
			if e.Validate() != nil {
				return false
			}
			observers := 0
			for _, q := range h.ULLQueues() {
				if !q.List().IsSorted() {
					return false
				}
				observers += q.ObserverCount()
			}
			armed := 0
			for _, rec := range live {
				if rec.paused && (rec.policy == PPSM || rec.policy == Horse) {
					armed++
				}
			}
			if observers != armed {
				return false
			}
			for _, rec := range live {
				if rec.paused {
					if len(rec.sb.Placements()) != 0 {
						return false
					}
				} else if len(rec.sb.Placements()) != rec.sb.NumVCPUs() {
					return false
				}
			}
			return true
		}

		for _, op := range ops {
			switch op % 5 {
			case 0: // create
				if len(live) >= 12 {
					continue
				}
				sb, err := h.CreateSandbox(vmm.Config{
					VCPUs:    rng.Intn(6) + 1,
					MemoryMB: 128,
					ULL:      true,
				})
				if err != nil {
					return false
				}
				live = append(live, &sandboxRec{sb: sb})
			case 1: // pause a running sandbox
				if rec := pick(rng, live, false); rec != nil {
					rec.policy = policies[rng.Intn(len(policies))]
					if _, err := e.Pause(rec.sb, rec.policy); err != nil {
						return false
					}
					rec.paused = true
				}
			case 2: // resume a paused sandbox with its pause policy
				if rec := pick(rng, live, true); rec != nil {
					if _, err := e.Resume(rec.sb, rec.policy); err != nil {
						return false
					}
					rec.paused = false
				}
			case 3: // destroy any sandbox
				if len(live) > 0 {
					i := rng.Intn(len(live))
					rec := live[i]
					e.Forget(rec.sb)
					if err := h.DestroySandbox(rec.sb); err != nil {
						return false
					}
					live = append(live[:i], live[i+1:]...)
				}
			case 4: // advance time so credits evolve
				h.Clock().Advance(simtime.Duration(rng.Intn(2000)+1) * simtime.Microsecond)
			}
			if !check() {
				return false
			}
		}
		// No prepared state may outlive its sandbox.
		prepared := 0
		for _, rec := range live {
			if rec.paused && rec.policy != Vanilla {
				prepared++
			}
		}
		return e.PreparedSandboxes() == prepared
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// pick returns a random live record in the wanted paused state, or nil.
func pick(rng *rand.Rand, live []*sandboxRec, paused bool) *sandboxRec {
	var candidates []*sandboxRec
	for _, rec := range live {
		if rec.paused == paused {
			candidates = append(candidates, rec)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[rng.Intn(len(candidates))]
}
