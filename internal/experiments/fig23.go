package experiments

import (
	"fmt"
	"io"
	"strconv"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
	"github.com/horse-faas/horse/internal/vmm"
)

// Telemetry carries the optional metrics sink an experiment threads
// into every hypervisor it builds. The zero value records nothing.
type Telemetry struct {
	Metrics *telemetry.Registry
}

// DefaultVCPUSweep is the paper's 1..36 vCPU sweep, sampled at the points
// the figures plot.
func DefaultVCPUSweep() []int { return []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36} }

// Fig2Point is the resume-step breakdown at one vCPU count (Figure 2).
type Fig2Point struct {
	VCPUs       int
	Total       simtime.Duration
	Steps       []simtime.StopwatchResult
	TwoOpsShare float64
}

// RunFig2 reproduces Figure 2: the vanilla resume breakdown as the vCPU
// count grows, showing steps ④ (sorted merge) and ⑤ (load update)
// dominating.
func RunFig2(vcpuCounts []int) ([]Fig2Point, error) {
	return RunFig2Traced(vcpuCounts, Telemetry{})
}

// RunFig2Traced is RunFig2 with telemetry sinks threaded into every run.
func RunFig2Traced(vcpuCounts []int, tel Telemetry) ([]Fig2Point, error) {
	runs, err := RunResumeSweep(vcpuCounts, []core.Policy{core.Vanilla}, tel)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig2 %w", err)
	}
	out := make([]Fig2Point, len(runs))
	for i, run := range runs {
		out[i] = Fig2Point{
			VCPUs:       run.Resume.VCPUs,
			Total:       run.Resume.Total,
			Steps:       run.Resume.Steps,
			TwoOpsShare: run.Resume.TwoOpsShare(),
		}
	}
	return out, nil
}

// Fig3Point is the resume time of the four setups at one vCPU count.
type Fig3Point struct {
	VCPUs  int
	Totals map[core.Policy]simtime.Duration
}

// Fig3Policies are the four setups of Figure 3.
func Fig3Policies() []core.Policy {
	return []core.Policy{core.Vanilla, core.Coal, core.PPSM, core.Horse}
}

// RunFig3 reproduces Figure 3: resume time for vanil / coal / ppsm /
// horse across the vCPU sweep.
func RunFig3(vcpuCounts []int) ([]Fig3Point, error) {
	return RunFig3Traced(vcpuCounts, Telemetry{})
}

// RunFig3Traced is RunFig3 with telemetry sinks threaded into every run.
func RunFig3Traced(vcpuCounts []int, tel Telemetry) ([]Fig3Point, error) {
	policies := Fig3Policies()
	runs, err := RunResumeSweep(vcpuCounts, policies, tel)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig3 %w", err)
	}
	var out []Fig3Point
	for ; len(runs) > 0; runs = runs[len(policies):] {
		point := Fig3Point{VCPUs: runs[0].Resume.VCPUs, Totals: make(map[core.Policy]simtime.Duration, len(policies))}
		for i, policy := range policies {
			point.Totals[policy] = runs[i].Resume.Total
		}
		out = append(out, point)
	}
	return out, nil
}

// Fig3Summary condenses a Figure 3 sweep into the paper's headline
// comparisons at the largest vCPU count.
type Fig3Summary struct {
	VCPUs            int
	VanillaTotal     simtime.Duration
	HorseTotal       simtime.Duration
	HorseSpeedup     float64 // vanil/horse
	HorseImprovement float64 // 1 - horse/vanil
	CoalSaving       float64 // 1 - coal/vanil
	PPSMSaving       float64 // 1 - ppsm/vanil
}

// Summarize extracts the headline factors from the last sweep point.
func SummarizeFig3(points []Fig3Point) (Fig3Summary, error) {
	if len(points) == 0 {
		return Fig3Summary{}, fmt.Errorf("experiments: empty fig3 sweep")
	}
	last := points[len(points)-1]
	vanil := last.Totals[core.Vanilla]
	horse := last.Totals[core.Horse]
	if vanil == 0 || horse == 0 {
		return Fig3Summary{}, fmt.Errorf("experiments: incomplete fig3 point %+v", last)
	}
	return Fig3Summary{
		VCPUs:            last.VCPUs,
		VanillaTotal:     vanil,
		HorseTotal:       horse,
		HorseSpeedup:     float64(vanil) / float64(horse),
		HorseImprovement: 1 - float64(horse)/float64(vanil),
		CoalSaving:       1 - float64(last.Totals[core.Coal])/float64(vanil),
		PPSMSaving:       1 - float64(last.Totals[core.PPSM])/float64(vanil),
	}, nil
}

// ResumeRun is one ResumeOnce measurement: the pause that armed the
// sandbox and the resume the figures plot.
type ResumeRun struct {
	Pause  vmm.PauseReport
	Resume vmm.ResumeReport
}

// ResumeOnce builds a fresh hypervisor, creates a uLL sandbox with n
// vCPUs, pauses and resumes it under the policy, and returns both
// reports.
func ResumeOnce(n int, policy core.Policy, tel Telemetry) (ResumeRun, error) {
	h, err := vmm.New(vmm.Options{Metrics: tel.Metrics})
	if err != nil {
		return ResumeRun{}, err
	}
	engine := core.NewEngine(h)
	sb, err := h.CreateSandbox(vmm.Config{VCPUs: n, MemoryMB: 512, ULL: true})
	if err != nil {
		return ResumeRun{}, err
	}
	pause, err := engine.Pause(sb, policy)
	if err != nil {
		return ResumeRun{}, err
	}
	resume, err := engine.Resume(sb, policy)
	if err != nil {
		return ResumeRun{}, err
	}
	return ResumeRun{Pause: pause, Resume: resume}, nil
}

// RunResumeSweep runs ResumeOnce at each vCPU count (nil selects
// DefaultVCPUSweep) under each policy in turn: the runs behind Figures
// 2 and 3, in the order their harnesses make them.
func RunResumeSweep(vcpuCounts []int, policies []core.Policy, tel Telemetry) ([]ResumeRun, error) {
	if len(vcpuCounts) == 0 {
		vcpuCounts = DefaultVCPUSweep()
	}
	runs := make([]ResumeRun, 0, len(vcpuCounts)*len(policies))
	for _, n := range vcpuCounts {
		for _, policy := range policies {
			run, err := ResumeOnce(n, policy, tel)
			if err != nil {
				return nil, fmt.Errorf("vcpus=%d policy=%s: %w", n, policy, err)
			}
			runs = append(runs, run)
		}
	}
	return runs, nil
}

// WriteStepTimeline writes runs as Chrome/Perfetto trace-event JSON,
// each run on its own track: a pause slice from zero, then a resume
// slice from where the pause ends, each tiled by its steps in
// first-charge order. Every run has its own hypervisor, whose clock
// starts at zero, so the tracks line up for comparison.
func WriteStepTimeline(w io.Writer, runs []ResumeRun) error {
	spans := make([]telemetry.Span, 0, 2*len(runs))
	for _, run := range runs {
		r := run.Resume
		track := fmt.Sprintf("%s vcpus=%d", r.Policy, r.VCPUs)
		args := map[string]string{"sandbox": r.Sandbox, "policy": r.Policy, "vcpus": strconv.Itoa(r.VCPUs)}
		spans = append(spans,
			telemetry.Span{Track: track, Name: "pause", Cat: r.Policy, Args: args, Steps: run.Pause.Steps},
			telemetry.Span{Track: track, Name: "resume", Cat: r.Policy, Start: simtime.Time(run.Pause.Total), Args: args, Steps: r.Steps})
	}
	return telemetry.WritePerfetto(w, spans)
}
