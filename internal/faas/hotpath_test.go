package faas

import (
	"errors"
	"testing"

	"github.com/horse-faas/horse/internal/core"
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

	// takeWarm pops in place and the re-push appends into the slack the
	// pop just created, so repeated runs keep the pool's backing array.
	d := &Deployment{pool: []pooledSandbox{
		{policy: core.Vanilla},
		{policy: core.Horse},
	}}
	if n := testing.AllocsPerRun(100, func() {
		ps, ok := d.takeWarm(core.Horse)
		if !ok {
			t.Fatal("takeWarm found no pooled sandbox")
		}
		d.pool = append(d.pool, ps)
	}); n != 0 {
		t.Errorf("Deployment.takeWarm allocates %v per run, want 0", n)
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
