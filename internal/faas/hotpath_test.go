package faas

import (
	"errors"
	"testing"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/simtime"
)

// sinkChain keeps the pinned calls from being optimized away.
var sinkChain []StartMode

// Allocation pins for every //horselint:hotpath function in this
// package: the per-trigger dispatch spine (fallback-chain resolution and
// warm-pool take) must be allocation-free, and these pins keep the
// measured truth in agreement with the hotpath analyzer's static
// verdict.
func TestHotPathAllocFree(t *testing.T) {
	enabled := FallbackConfig{Enabled: true}
	disabled := FallbackConfig{}

	if n := testing.AllocsPerRun(100, func() {
		sinkChain = singleChain(ModeHorse)
	}); n != 0 {
		t.Errorf("singleChain allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkChain = enabled.chainFrom(ModeWarm)
		sinkChain = disabled.chainFrom(ModeHorse)
	}); n != 0 {
		t.Errorf("FallbackConfig.chainFrom allocates %v per run, want 0", n)
	}

	// takeWarm pops a queue's head in place and the re-push fills the
	// slot the pop freed, so a mixed-policy pool takes and re-pools
	// without allocating while every queue's ring wraps around, again
	// and again.
	d := &Deployment{}
	for i, policy := range []core.Policy{core.Vanilla, core.Horse, core.PPSM, core.Vanilla, core.Coal, core.Horse, core.Vanilla} {
		d.pool[policyIndex(policy)].push(pooledSandbox{pausedAt: simtime.Time(i)})
	}
	all := [...]core.Policy{core.Vanilla, core.Horse, core.Vanilla, core.PPSM, core.Coal, core.Horse, core.Vanilla}
	wraps := 0
	if n := testing.AllocsPerRun(100, func() {
		for _, policy := range all {
			ps, ok := d.takeWarm(policy)
			if !ok {
				t.Fatalf("takeWarm found no %s sandbox", policy)
			}
			q := &d.pool[policyIndex(policy)]
			q.push(ps)
			if q.head == 0 {
				wraps++
			}
		}
	}); n != 0 {
		t.Errorf("Deployment.takeWarm allocates %v per run, want 0", n)
	}
	if wraps < 100 {
		t.Errorf("the queues' heads wrapped %d times, want at least 100", wraps)
	}

	// A warm or HORSE trigger on an empty pool returns the deployment's
	// ErrNoWarmSandbox wrap for that mode, built by its first miss (the
	// warm-up run), so later misses format nothing.
	p := newPlatform(t)
	registerScan(t, p)
	for _, mode := range []StartMode{ModeWarm, ModeHorse} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := p.Trigger("scan", mode, nil); !errors.Is(err, ErrNoWarmSandbox) {
				t.Fatalf("%v trigger on an empty pool = %v, want ErrNoWarmSandbox", mode, err)
			}
		}); n != 0 {
			t.Errorf("%v pool miss allocates %v per run, want 0", mode, n)
		}
	}
}
