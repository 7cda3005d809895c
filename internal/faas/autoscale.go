package faas

import (
	"fmt"

	"github.com/horse-faas/horse/internal/core"
)

// PoolStats summarizes one deployment's warm pool.
type PoolStats struct {
	// Size is the number of paused sandboxes ready to serve triggers.
	Size int
	// CommittedMB is the sandbox memory the pool holds (Size × the
	// deployment's per-sandbox MemoryMB). Memory attribution is computed
	// here, where the pools live, so cluster-level admission and tenant
	// quota checks charge exactly what the platform has committed — a
	// ledger kept elsewhere could drift across destroy failures.
	CommittedMB int
}

// PoolStats returns the deployment's current pool summary.
func (p *Platform) PoolStats(name string) (PoolStats, error) {
	d, err := p.Deployment(name)
	if err != nil {
		return PoolStats{}, err
	}
	size := d.WarmPoolSize()
	return PoolStats{Size: size, CommittedMB: size * d.spec.MemoryMB}, nil
}

// ScaleTo adjusts the deployment's pool of sandboxes armed for the given
// policy to exactly target entries — the control knob behind provisioned
// concurrency: providers grow the pool ahead of predicted demand and
// shrink it when the subscription drops.
//
// Growing creates and pauses fresh sandboxes; shrinking destroys the
// longest-idle entries first (their snapshot of the queue state is the
// stalest).
func (p *Platform) ScaleTo(name string, target int, policy core.Policy) error {
	if target < 0 {
		return fmt.Errorf("faas: negative pool target %d", target)
	}
	d, err := p.Deployment(name)
	if err != nil {
		return err
	}
	current := d.PoolCount(policy)
	switch {
	case current < target:
		return p.Provision(name, target-current, policy)
	case current > target:
		return p.shrinkPool(d, current-target, policy)
	default:
		return nil
	}
}

// shrinkPool destroys n pool entries of the given policy, oldest pause
// first, the one nearer the queue's head on a tie: a re-pooled sandbox
// whose resume failed on entry keeps its pause time, so pause times
// need not rise along the queue. An entry leaves the pool only once its
// sandbox is destroyed, so a failed destroy leaves it pooled (still
// paused, still prepared), and the pool gauge is refreshed on every
// exit.
func (p *Platform) shrinkPool(d *Deployment, n int, policy core.Policy) error {
	defer p.updatePoolGauge()
	q := &d.pool[policyIndex(policy)]
	for ; n > 0; n-- {
		if q.n == 0 {
			return fmt.Errorf("faas: pool shrink found no %q entries", policy)
		}
		oldest := 0
		for i := 1; i < q.n; i++ {
			if q.at(i).pausedAt < q.at(oldest).pausedAt {
				oldest = i
			}
		}
		sb := q.at(oldest).sb
		if err := p.h.DestroySandbox(sb); err != nil {
			return err
		}
		q.remove(oldest)
		p.pooled--
		p.engine.Forget(sb)
	}
	return nil
}
