package experiments

import (
	"fmt"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/runqueue"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/vmm"
)

// OverheadConfig shapes the §5.2 overhead experiment: a server running
// busy background sandboxes while uLL sandboxes are created, paused for a
// while, and resumed.
type OverheadConfig struct {
	// QueueBacklog pre-populates the ull_runqueue with that many
	// entities, modelling the production-busy reserved queue whose
	// positional index (arrayB) dominates P²SM's memory footprint. The
	// paper's 528 KB figure corresponds to ≈6600 entries; 0 selects that.
	QueueBacklog int
}

// The §5.2 scenario's fixed population.
const (
	// overheadULLSandboxes is the number of uLL sandboxes (paper: 10).
	overheadULLSandboxes = 10
	// overheadBackground is the number of busy 1-vCPU sandboxes (paper:
	// 10, each running sysbench).
	overheadBackground = 10
)

func (c *OverheadConfig) applyDefaults() {
	if c.QueueBacklog == 0 {
		c.QueueBacklog = 6600
	}
}

// OverheadResult reports HORSE's §5.2 overheads against the vanilla path
// at one vCPU count.
type OverheadResult struct {
	VCPUs int

	// PSMMemoryBytes is the heap held by P²SM structures while every uLL
	// sandbox is paused (paper: ≈528 KB for 10 sandboxes).
	PSMMemoryBytes int
	// SandboxMemoryBytes is the guest memory of all running sandboxes,
	// the denominator of the paper's 0.11% comparison.
	SandboxMemoryBytes int64
	// MemoryOverheadPct is the ratio of the two, in percent.
	MemoryOverheadPct float64

	// PauseExtraWork is the additional virtual CPU time HORSE's pause
	// path spends versus vanilla (structure builds + coalesce precompute).
	PauseExtraWork simtime.Duration
	// ResumeExtraWork is the additional resume-side work (splice threads
	// and sibling-structure resynchronization) versus the vanilla
	// resume's own merge/load work; negative means HORSE does less.
	ResumeExtraWork simtime.Duration
	// PauseCPUPct / ResumeCPUPct express the extra work as a percentage
	// of one 500 ms sampling window of the busy background cores, the
	// paper's measurement granularity.
	PauseCPUPct  float64
	ResumeCPUPct float64
}

// RunOverhead runs the §5.2 experiment for each vCPU count of the uLL
// sandboxes.
func RunOverhead(cfg OverheadConfig, vcpuCounts []int) ([]OverheadResult, error) {
	if len(vcpuCounts) == 0 {
		vcpuCounts = DefaultVCPUSweep()
	}
	cfg.applyDefaults()
	var out []OverheadResult
	for _, n := range vcpuCounts {
		r, err := runOverheadOnce(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("experiments: overhead vcpus=%d: %w", n, err)
		}
		out = append(out, r)
	}
	return out, nil
}

type overheadRun struct {
	pauseWork    simtime.Duration
	resumeWork   simtime.Duration
	memoryBytes  int
	sandboxBytes int64
}

// runOverheadOnce measures one vCPU count: the same scenario under the
// vanilla and HORSE policies, on fresh hypervisors.
func runOverheadOnce(cfg OverheadConfig, vcpus int) (OverheadResult, error) {
	vanil, err := overheadScenario(cfg, vcpus, core.Vanilla)
	if err != nil {
		return OverheadResult{}, err
	}
	horse, err := overheadScenario(cfg, vcpus, core.Horse)
	if err != nil {
		return OverheadResult{}, err
	}

	// One 500 ms sample of the busy background cores (the paper records
	// CPU usage every 500 ms while sysbench keeps those cores pegged).
	const sample = overheadBackground * 500 * simtime.Millisecond
	res := OverheadResult{
		VCPUs:              vcpus,
		PSMMemoryBytes:     horse.memoryBytes,
		SandboxMemoryBytes: horse.sandboxBytes,
		PauseExtraWork:     horse.pauseWork - vanil.pauseWork,
		ResumeExtraWork:    horse.resumeWork - vanil.resumeWork,
	}
	if horse.sandboxBytes > 0 {
		res.MemoryOverheadPct = 100 * float64(horse.memoryBytes) / float64(horse.sandboxBytes)
	}
	res.PauseCPUPct = 100 * float64(res.PauseExtraWork) / float64(sample)
	res.ResumeCPUPct = 100 * float64(res.ResumeExtraWork) / float64(sample)
	return res, nil
}

// overheadScenario plays the §5.2 scenario under one policy and returns
// the lifecycle work and peak P²SM memory.
func overheadScenario(cfg OverheadConfig, vcpus int, policy core.Policy) (overheadRun, error) {
	h, err := vmm.New(vmm.Options{})
	if err != nil {
		return overheadRun{}, err
	}
	engine := core.NewEngine(h)

	// Busy background sandboxes (sysbench hosts).
	for i := 0; i < overheadBackground; i++ {
		if _, err := h.CreateSandbox(vmm.Config{VCPUs: 1, MemoryMB: 512}); err != nil {
			return overheadRun{}, err
		}
	}
	// A production-busy reserved queue.
	ull := h.ULLQueues()[0]
	for i := 0; i < cfg.QueueBacklog; i++ {
		ent := &runqueue.Entity{
			ID:     fmt.Sprintf("backlog%d", i),
			Kind:   runqueue.KindTask,
			Credit: int64(i),
		}
		if _, _, err := ull.Insert(ent); err != nil {
			return overheadRun{}, err
		}
	}

	// The 10 uLL sandboxes: create, pause (5 s), resume.
	var sandboxes []*vmm.Sandbox
	for i := 0; i < overheadULLSandboxes; i++ {
		sb, err := h.CreateSandbox(vmm.Config{VCPUs: vcpus, MemoryMB: 512, ULL: true})
		if err != nil {
			return overheadRun{}, err
		}
		sandboxes = append(sandboxes, sb)
	}
	for _, sb := range sandboxes {
		if _, err := engine.Pause(sb, policy); err != nil {
			return overheadRun{}, err
		}
	}
	run := overheadRun{memoryBytes: engine.MemoryFootprint()}
	var sandboxBytes int64
	for i := 0; i < h.Sandboxes(); i++ {
		// All sandboxes are 512 MB in this scenario.
		sandboxBytes += 512 << 20
	}
	run.sandboxBytes = sandboxBytes

	h.Clock().Advance(5 * simtime.Second)
	for _, sb := range sandboxes {
		if _, err := engine.Resume(sb, policy); err != nil {
			return overheadRun{}, err
		}
	}
	acct := h.Accounting()
	run.pauseWork = acct.PauseWork
	run.resumeWork = acct.ResumeWork + engine.BackgroundSyncWork()
	return run, nil
}
