package faas

import (
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
	"github.com/horse-faas/horse/internal/vmm"
	"github.com/horse-faas/horse/internal/workload"
)

// modelEntry is one entry of the single mixed-policy pool slice that
// the per-policy queues replaced.
type modelEntry struct {
	sb       *vmm.Sandbox
	policy   core.Policy
	pausedAt simtime.Time
}

// poolModel is that single slice: entries in pooling order, a take
// scanning for the first entry of its policy and shifting the rest
// down, a shrink taking the policy's oldest pause, the earlier entry
// on a tie.
type poolModel []modelEntry

func (m *poolModel) take(policy core.Policy) (modelEntry, bool) {
	for i, e := range *m {
		if e.policy == policy {
			*m = append((*m)[:i], (*m)[i+1:]...)
			return e, true
		}
	}
	return modelEntry{}, false
}

func (m *poolModel) shrink(policy core.Policy) {
	oldest := -1
	for i, e := range *m {
		if e.policy == policy && (oldest == -1 || e.pausedAt < (*m)[oldest].pausedAt) {
			oldest = i
		}
	}
	*m = append((*m)[:oldest], (*m)[oldest+1:]...)
}

func (m poolModel) count(policy core.Policy) int {
	n := 0
	for _, e := range m {
		if e.policy == policy {
			n++
		}
	}
	return n
}

// TestPoolQueuesMatchSingleSliceModel drives random sequences of
// provisioning, takes, re-pools, failed-resume releases (re-pooled and
// destroyed) and ScaleTo shrinks over all four policies, and checks
// after every step that each policy's queue holds exactly that
// policy's entries of the single-slice model, in its order: every take
// returns the model's sandbox and every shrink leaves its survivors.
func TestPoolQueuesMatchSingleSliceModel(t *testing.T) {
	all := [...]core.Policy{core.Vanilla, core.PPSM, core.Coal, core.Horse}
	for seed := int64(1); seed <= 8; seed++ {
		m := telemetry.NewRegistry()
		p := newMeteredPlatform(t, m)
		d := registerScan(t, p)
		rng := rand.New(rand.NewSource(seed))
		var model poolModel
		var held []modelEntry // taken, not yet re-pooled or destroyed
		for step := 0; step < 400; step++ {
			policy := all[rng.Intn(len(all))]
			// Pause times tie whenever the clock stands still.
			p.Clock().Advance(simtime.Duration(rng.Intn(2)))
			switch op := rng.Intn(10); {
			case op < 2:
				k := 1 + rng.Intn(3)
				if err := p.Provision("scan", k, policy); err != nil {
					t.Fatal(err)
				}
				q := &d.pool[policyIndex(policy)]
				for i := q.n - k; i < q.n; i++ {
					model = append(model, modelEntry{q.at(i).sb, policy, q.at(i).pausedAt})
				}
			case op < 5:
				ps, ok := p.take(d, policy)
				want, wantOK := model.take(policy)
				if ok != wantOK || ps.sb != want.sb || ps.pausedAt != want.pausedAt {
					t.Fatalf("seed %d step %d: take(%s) = %v %v, the single slice took %v %v",
						seed, step, policy, ps, ok, want, wantOK)
				}
				if ok {
					held = append(held, want)
				}
			case op < 9 && len(held) > 0:
				i := rng.Intn(len(held))
				e := held[i]
				held = append(held[:i], held[i+1:]...)
				switch op {
				case 5, 6: // served and re-paused
					e.pausedAt = p.Clock().Now()
					p.repool(d, e.policy, pooledSandbox{sb: e.sb, pausedAt: e.pausedAt})
					p.updatePoolGauge()
					model = append(model, e)
				case 7: // a resume refused on entry: back with its old pause time
					err := p.releaseFailedResume(d, e.policy, pooledSandbox{sb: e.sb, pausedAt: e.pausedAt}, vmm.ErrResumeBusy)
					if !errors.Is(err, vmm.ErrResumeBusy) {
						t.Fatal(err)
					}
					model = append(model, e)
				default: // a poisoned resume: destroyed
					if err := p.releaseFailedResume(d, e.policy, pooledSandbox{sb: e.sb}, core.ErrPoisoned); !errors.Is(err, core.ErrPoisoned) {
						t.Fatal(err)
					}
				}
			default:
				if n := model.count(policy); n > 0 {
					target := rng.Intn(n)
					if err := p.ScaleTo("scan", target, policy); err != nil {
						t.Fatal(err)
					}
					for ; n > target; n-- {
						model.shrink(policy)
					}
				}
			}
			for _, policy := range all {
				q := &d.pool[policyIndex(policy)]
				i := 0
				for _, e := range model {
					if e.policy != policy {
						continue
					}
					if i >= q.n || q.at(i).sb != e.sb || q.at(i).pausedAt != e.pausedAt {
						t.Fatalf("seed %d step %d: %s queue entry %d differs from the single slice", seed, step, policy, i)
					}
					i++
				}
				if i != q.n || d.PoolCount(policy) != i {
					t.Fatalf("seed %d step %d: %s queue holds %d, PoolCount %d, the single slice %d",
						seed, step, policy, q.n, d.PoolCount(policy), i)
				}
			}
			if d.WarmPoolSize() != len(model) || p.pooled != len(model) {
				t.Fatalf("seed %d step %d: WarmPoolSize %d, pooled %d, the single slice %d",
					seed, step, d.WarmPoolSize(), p.pooled, len(model))
			}
			if got := m.Gauge("faas_warm_pool_size").Value(); got != int64(len(model)) {
				t.Fatalf("seed %d step %d: pool gauge %d, pool %d", seed, step, got, len(model))
			}
		}
	}
}

// TestPoolGaugeAfterFaultStorm: after a storm of triggers over two
// deployments and both armed policies, with resume and invoke faults
// re-pooling, destroying and falling back, the pool gauge the platform
// keeps by count equals the pools' sizes summed.
func TestPoolGaugeAfterFaultStorm(t *testing.T) {
	inj, err := faultinject.FromSpec(7, "resume:rate=0.3,invoke:rate=0.05")
	if err != nil {
		t.Fatal(err)
	}
	p := newFaultyPlatform(t, inj, FallbackConfig{Enabled: true})
	nat, err := workload.NewNAT([]workload.NATRule{{MatchIP: "203.0.113.10", MatchPort: 80, RewriteIP: "10.0.0.5", RewritePort: 8080}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(nat, SandboxSpec{VCPUs: 1, MemoryMB: 128}); err != nil {
		t.Fatal(err)
	}
	registerScan(t, p)
	natPayload, err := json.Marshal(workload.NATPacket{DstIP: "203.0.113.10", DstPort: 80})
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string][]byte{"nat": natPayload, "scan": scanPayload(t)}
	for name := range payloads {
		for _, policy := range []core.Policy{core.Vanilla, core.Horse} {
			if err := p.Provision(name, 3, policy); err != nil {
				t.Fatal(err)
			}
		}
	}
	gauge := p.Hypervisor().Metrics().Gauge("faas_warm_pool_size")
	pooled := func() int {
		n := 0
		for _, d := range p.deployments {
			n += d.WarmPoolSize()
		}
		return n
	}
	rng := rand.New(rand.NewSource(7))
	modes := []StartMode{ModeHorse, ModeHorse, ModeWarm, ModeRestore, ModeCold}
	names := []string{"nat", "scan"}
	failures := 0
	for i := 0; i < 400; i++ {
		name := names[rng.Intn(len(names))]
		if _, err := p.Trigger(name, modes[rng.Intn(len(modes))], payloads[name]); err != nil {
			failures++
		}
		if got, want := gauge.Value(), int64(pooled()); got != want {
			t.Fatalf("trigger %d: pool gauge %d, pools hold %d", i, got, want)
		}
	}
	if failures == 0 {
		t.Fatal("the storm failed no trigger; the faults did not fire")
	}
}
