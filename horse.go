// Package horse is a reproduction of "HORSE: Ultra-low latency workloads
// on FaaS platforms" (Mvondo, Taïani, Bromberg — Middleware '24) as a
// self-contained Go library.
//
// HORSE is a hot-resume fast path for paused FaaS sandboxes hosting
// ultra-low-latency (uLL) functions. It combines two mechanisms:
//
//   - P²SM, a parallel precomputed sorted merge that splices a paused
//     sandbox's pre-sorted vCPU list into a reserved run queue in O(1),
//     independent of either list's length; and
//   - load-update coalescing, which replaces the n per-vCPU affine load
//     updates L(x)=αx+β with the single closed form αⁿx + β(1-αⁿ)/(1-α),
//     precomputed at pause time.
//
// This package is the public facade: it exposes the FaaS platform (with
// the paper's four start modes — cold, restore, warm, and HORSE), the
// resume policies of the evaluation's ablation (vanil/ppsm/coal/horse),
// the uLL workloads of §2, and the experiment harnesses that regenerate
// every table and figure of the paper. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-vs-measured results.
//
// # Quickstart
//
//	p, err := horse.NewPlatform()
//	// handle err
//	fn := horse.NewScanFunction(42)
//	_, err = p.Register(fn, horse.SandboxSpec{VCPUs: 1, MemoryMB: 512})
//	// handle err
//	err = p.Provision(fn.Name(), 1, horse.PolicyHorse)
//	// handle err
//	inv, err := p.Trigger(fn.Name(), horse.ModeHorse, payload)
//	// inv.Init is ≈150ns of virtual time, regardless of vCPU count.
package horse

import (
	"io"
	"net/http"

	"github.com/horse-faas/horse/internal/cluster"
	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/experiments"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/loadgen"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
	"github.com/horse-faas/horse/internal/tenant"
	"github.com/horse-faas/horse/internal/trace"
	"github.com/horse-faas/horse/internal/trigtrace"
	"github.com/horse-faas/horse/internal/vmm"
	"github.com/horse-faas/horse/internal/workload"
)

// Core platform types.
type (
	// Platform is the FaaS control plane: function registry, warm pools,
	// keep-alive, and the four trigger start modes.
	Platform = faas.Platform
	// PlatformOptions configures NewPlatform.
	PlatformOptions = faas.Options
	// SandboxSpec sizes a deployment's sandboxes.
	SandboxSpec = faas.SandboxSpec
	// Deployment is a registered function plus its sandbox pool.
	Deployment = faas.Deployment
	// Invocation is the outcome of one trigger: virtual init/exec times
	// plus the function's real output.
	Invocation = faas.Invocation
	// StartMode selects how a trigger obtains its sandbox.
	StartMode = faas.StartMode
	// Policy selects a pause/resume implementation (the Figure 3 setups).
	Policy = core.Policy
	// Function is a deployable FaaS function.
	Function = workload.Function
	// Category classifies functions by execution-time class (paper §2).
	Category = workload.Category

	// Hypervisor is the simulated virtualization system, for callers who
	// drive pause/resume directly rather than through the platform.
	Hypervisor = vmm.Hypervisor
	// HypervisorOptions configures NewHypervisor.
	HypervisorOptions = vmm.Options
	// SandboxConfig sizes a directly created sandbox.
	SandboxConfig = vmm.Config
	// Sandbox is one microVM.
	Sandbox = vmm.Sandbox
	// ResumeEngine is the HORSE engine over a hypervisor.
	ResumeEngine = core.Engine
	// ResumeReport is a resume's per-step cost breakdown.
	ResumeReport = vmm.ResumeReport
	// PauseReport is a pause's per-step cost breakdown.
	PauseReport = vmm.PauseReport
	// CostModel holds the virtual-time calibration (DESIGN.md §5).
	CostModel = vmm.CostModel

	// Time is a virtual-clock instant; Duration a span of virtual time.
	Time = simtime.Time
	// Duration is a span of virtual time in nanoseconds.
	Duration = simtime.Duration
)

// Start modes (paper §2 / §5.3).
const (
	ModeCold    = faas.ModeCold
	ModeRestore = faas.ModeRestore
	ModeWarm    = faas.ModeWarm
	ModeHorse   = faas.ModeHorse
)

// Resume policies (the four setups of Figure 3).
const (
	PolicyVanilla = core.Vanilla
	PolicyPPSM    = core.PPSM
	PolicyCoal    = core.Coal
	PolicyHorse   = core.Horse
)

// Workload categories (paper §2).
const (
	Category1    = workload.Category1
	Category2    = workload.Category2
	Category3    = workload.Category3
	CategoryLong = workload.CategoryLong
)

// Virtual time units.
const (
	Nanosecond  = simtime.Nanosecond
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
)

// NewPlatform builds a FaaS platform over a fresh default hypervisor.
func NewPlatform() (*Platform, error) {
	return faas.New(faas.Options{})
}

// NewPlatformWith builds a platform with explicit options.
func NewPlatformWith(opts PlatformOptions) (*Platform, error) {
	return faas.New(opts)
}

// NewHypervisor builds a standalone simulated virtualization system.
func NewHypervisor(opts HypervisorOptions) (*Hypervisor, error) {
	return vmm.New(opts)
}

// NewResumeEngine builds a HORSE engine over a hypervisor.
func NewResumeEngine(h *Hypervisor) *ResumeEngine {
	return core.NewEngine(h)
}

// DefaultCostModel returns the calibrated virtual-time constants for the
// Firecracker (Linux KVM) flavor of the prototype.
func DefaultCostModel() CostModel { return vmm.DefaultCostModel() }

// XenCostModel returns the calibration for the Xen 4.17 flavor.
func XenCostModel() CostModel { return vmm.XenCostModel() }

// Workload constructors (paper §2 and §5.4).

// Workload payload types (JSON-encoded as trigger payloads).
type (
	// FirewallRequest is the firewall's input header.
	FirewallRequest = workload.FirewallRequest
	// FirewallDecision is the firewall's verdict.
	FirewallDecision = workload.FirewallDecision
	// NATPacket is the NAT's input header.
	NATPacket = workload.NATPacket
	// NATResult is the NAT's translated header.
	NATResult = workload.NATResult
	// ScanRequest is the array scan's threshold parameter.
	ScanRequest = workload.ScanRequest
	// ScanResult is the array scan's matching indexes.
	ScanResult = workload.ScanResult
	// ThumbnailRequest names a source image and target edge.
	ThumbnailRequest = workload.ThumbnailRequest
	// ThumbnailResult describes the generated thumbnail.
	ThumbnailResult = workload.ThumbnailResult
)

// NewFirewallFunction returns the Category-1 stateless firewall with a
// representative NFV allow list.
func NewFirewallFunction() Function { return workload.DefaultFirewall() }

// NewNATFunction returns the Category-2 NAT header rewriter with a
// representative rule set.
func NewNATFunction() Function { return workload.DefaultNAT() }

// NewScanFunction returns the Category-3 array index scan over a
// deterministic 3000-integer array derived from seed.
func NewScanFunction(seed int64) Function { return workload.NewScan(seed) }

// NewThumbnailFunction returns the long-running SEBS-style thumbnail
// generator of §5.4.
func NewThumbnailFunction() Function { return workload.NewThumbnail() }

// Experiment harnesses: one per table/figure. See cmd/horsebench for a
// CLI that renders them.
type (
	// InitBreakdown is the Table 1 / Figure 1 / Figure 4 result.
	InitBreakdown = experiments.Table1Result
	// Fig2Point is one vCPU count of the Figure 2 resume breakdown.
	Fig2Point = experiments.Fig2Point
	// Fig3Point is one vCPU count of the Figure 3 policy comparison.
	Fig3Point = experiments.Fig3Point
	// Fig3Summary is Figure 3's headline factors.
	Fig3Summary = experiments.Fig3Summary
	// OverheadConfig shapes the §5.2 overhead experiment.
	OverheadConfig = experiments.OverheadConfig
	// OverheadResult reports HORSE's §5.2 overheads at one vCPU count.
	OverheadResult = experiments.OverheadResult
	// ColocationConfig shapes the §5.4 colocation experiment.
	ColocationConfig = experiments.ColocationConfig
	// ColocationComparison pairs §5.4's vanilla and HORSE runs.
	ColocationComparison = experiments.ColocationComparison
	// ULLQueueSweepConfig shapes the ull_runqueue-count ablation (§4.1.3).
	ULLQueueSweepConfig = experiments.ULLQueueSweepConfig
	// ULLQueueSweepPoint is the ablation outcome at one queue count.
	ULLQueueSweepPoint = experiments.ULLQueueSweepPoint
	// DispatchResult describes one workload on the 1µs-quantum queue.
	DispatchResult = experiments.DispatchResult
	// ClaimResult is one verified reproduction claim.
	ClaimResult = experiments.ClaimResult

	// TraceConfig shapes a synthetic Azure-style trace.
	TraceConfig = trace.SynthConfig
	// Trace is a set of per-minute function invocation counts.
	Trace = trace.Trace
	// Arrival is one expanded trace invocation instant.
	Arrival = trace.Arrival

	// PayloadFunc supplies trigger payloads during a trace replay.
	PayloadFunc = faas.PayloadFunc
	// ReplayReport summarizes a Platform.Replay run.
	ReplayReport = faas.ReplayReport
	// PoolStats summarizes a deployment warm pool.
	PoolStats = faas.PoolStats
)

// RunTable1 regenerates Table 1 (init/exec per category for cold,
// restore, and warm starts).
func RunTable1() (InitBreakdown, error) {
	return experiments.RunInitBreakdown(experiments.Table1Scenarios())
}

// RunFig4 regenerates Figure 4 (Table 1's scenarios plus HORSE).
func RunFig4() (InitBreakdown, error) {
	return experiments.RunInitBreakdown(experiments.Fig4Scenarios())
}

// RunFig2 regenerates Figure 2 (vanilla resume breakdown vs vCPUs).
// A nil sweep selects the paper's 1..36 range.
func RunFig2(vcpus []int) ([]Fig2Point, error) { return experiments.RunFig2(vcpus) }

// RunFig3 regenerates Figure 3 (resume time of the four policies vs
// vCPUs). A nil sweep selects the paper's 1..36 range.
func RunFig3(vcpus []int) ([]Fig3Point, error) { return experiments.RunFig3(vcpus) }

// SummarizeFig3 extracts the headline factors from a Figure 3 sweep.
func SummarizeFig3(points []Fig3Point) (Fig3Summary, error) {
	return experiments.SummarizeFig3(points)
}

// RunOverhead regenerates the §5.2 CPU/memory overhead results.
func RunOverhead(cfg OverheadConfig, vcpus []int) ([]OverheadResult, error) {
	return experiments.RunOverhead(cfg, vcpus)
}

// RunColocation regenerates the §5.4 colocation experiment: thumbnail
// tail latency under vanilla vs HORSE with periodic uLL resumes.
func RunColocation(cfg ColocationConfig) (ColocationComparison, error) {
	return experiments.RunColocation(cfg)
}

// RunColocationSweep repeats the §5.4 comparison across uLL sandbox
// sizes (the paper sweeps 1..36 vCPUs). A nil sweep selects the default
// range.
func RunColocationSweep(cfg ColocationConfig, vcpus []int) ([]ColocationComparison, error) {
	return experiments.RunColocationSweep(cfg, vcpus)
}

// RunULLQueueSweep runs the §4.1.3 ablation: how the number of reserved
// ull_runqueues affects load balancing and the background structure-
// maintenance cost, while the resume fast path stays constant. A nil
// sweep selects 1, 2, 4, and 8 queues.
func RunULLQueueSweep(cfg ULLQueueSweepConfig, queueCounts []int) ([]ULLQueueSweepPoint, error) {
	return experiments.RunULLQueueSweep(cfg, queueCounts)
}

// RunULLDispatch demonstrates §4.1.3's 1µs-timeslice claim: concurrent
// uLL workloads dispatched on one reserved queue.
func RunULLDispatch() ([]DispatchResult, error) {
	return experiments.RunULLDispatch()
}

// VerifyClaims runs every experiment and checks the results against the
// paper's claims — the machine-checkable version of EXPERIMENTS.md.
func VerifyClaims() ([]ClaimResult, error) { return experiments.VerifyClaims() }

// Observability (see DESIGN.md "Observability"): a concurrent metrics
// registry with Prometheus exporters, and Perfetto step timelines built
// from the pause and resume reports. Registry operations on a nil
// registry are no-ops, so instrumented code needs no conditional
// wiring. Per-trigger traces are the TraceRecorder's (below).
type (
	// MetricsRegistry is the concurrent named-instrument registry.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a point-in-time registry export.
	MetricsSnapshot = telemetry.Snapshot
	// ExperimentTelemetry carries the metrics sink the traced experiment
	// harnesses thread into every hypervisor they build.
	ExperimentTelemetry = experiments.Telemetry
	// ResumeRun is one pause and resume of a fresh sandbox: both
	// per-step reports.
	ResumeRun = experiments.ResumeRun
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// Fig3Policies returns the four Figure 3 setups in plotting order.
func Fig3Policies() []Policy { return experiments.Fig3Policies() }

// RunResumeSweep pauses and resumes a fresh uLL sandbox at each vCPU
// count (nil selects the figures' 1..36 sweep) under each policy in
// turn, each on its own hypervisor, and returns every run's reports:
// the runs behind Figures 2 and 3.
func RunResumeSweep(vcpus []int, policies []Policy, tel ExperimentTelemetry) ([]ResumeRun, error) {
	return experiments.RunResumeSweep(vcpus, policies, tel)
}

// WriteStepTimeline emits runs as Chrome/Perfetto trace-event JSON
// (load the file at https://ui.perfetto.dev): one track per run, its
// pause and resume slices each tiled by their steps.
func WriteStepTimeline(w io.Writer, runs []ResumeRun) error {
	return experiments.WriteStepTimeline(w, runs)
}

// WritePrometheusText emits a snapshot in Prometheus text exposition
// format 0.0.4.
func WritePrometheusText(w io.Writer, snap MetricsSnapshot) error {
	return telemetry.WritePrometheus(w, snap)
}

// MetricsHandler serves a registry as a /metrics-style endpoint
// (Prometheus text by default, JSON via ?format=json).
func MetricsHandler(r *MetricsRegistry) http.Handler { return telemetry.Handler(r) }

// RunFig2Traced is RunFig2 with telemetry sinks threaded into every run.
func RunFig2Traced(vcpus []int, tel ExperimentTelemetry) ([]Fig2Point, error) {
	return experiments.RunFig2Traced(vcpus, tel)
}

// RunFig3Traced is RunFig3 with telemetry sinks threaded into every run.
func RunFig3Traced(vcpus []int, tel ExperimentTelemetry) ([]Fig3Point, error) {
	return experiments.RunFig3Traced(vcpus, tel)
}

// Robustness (DESIGN.md §10): deterministic fault injection and the
// trigger path's graceful-degradation machinery.
type (
	// FaultInjector raises seed-deterministic faults at named control-
	// plane sites; thread one through PlatformOptions.Faults.
	FaultInjector = faultinject.Injector
	// FaultSite names an injection point (create, pause, resume,
	// restore, invoke, destroy).
	FaultSite = faultinject.Site
	// FallbackConfig configures Trigger's degradation chain and the
	// contention retry loop (PlatformOptions.Fallback).
	FallbackConfig = faas.FallbackConfig
	// TriggerFailure is one failed trigger recorded by a fault-surviving
	// replay (ReplayReport.Failures).
	TriggerFailure = faas.TriggerFailure
)

// Fault-injection sites.
const (
	FaultSiteCreate    = faultinject.SiteCreate
	FaultSitePause     = faultinject.SitePause
	FaultSiteResume    = faultinject.SiteResume
	FaultSiteRestore   = faultinject.SiteRestore
	FaultSiteInvoke    = faultinject.SiteInvoke
	FaultSiteDestroy   = faultinject.SiteDestroy
	FaultSiteNodeFail  = faultinject.SiteNodeFail
	FaultSiteNodeDrain = faultinject.SiteNodeDrain
)

// ErrFaultInjected is the sentinel every injected fault matches with
// errors.Is.
var ErrFaultInjected = faultinject.ErrInjected

// FaultInjectorFromSpec builds an injector directly from a spec string;
// an empty spec yields a nil (inert) injector.
func FaultInjectorFromSpec(seed int64, spec string) (*FaultInjector, error) {
	return faultinject.FromSpec(seed, spec)
}

// SynthesizeTrace generates a deterministic Azure-like invocation trace.
func SynthesizeTrace(cfg TraceConfig) *Trace { return trace.Synthesize(cfg) }

// ParseTrace reads a trace in the Azure public dataset's per-minute CSV
// layout.
func ParseTrace(r io.Reader) (*Trace, error) { return trace.ParseCSV(r) }

// TraceArrivals expands a trace's per-minute counts into sorted arrival
// instants, deterministically by seed.
func TraceArrivals(t *Trace, seed int64) []Arrival { return t.Arrivals(seed) }

// Cluster scale-out (DESIGN.md §11): a deterministic multi-node
// deployment behind pluggable placement policies, fed by an open-loop
// load generator on the virtual clock. See cmd/horsesim's cluster
// subcommand for the CLI front end.
type (
	// Cluster is a deterministic multi-node HORSE deployment: N
	// platform nodes behind a Router, with cluster-wide pool operations
	// and failover on node failure or drain.
	Cluster = cluster.Cluster
	// ClusterOptions configures NewCluster.
	ClusterOptions = cluster.Options
	// ClusterNodeSpec sizes one node's capacity: vCPUs, memory, and the
	// reserved uLL slots that make it eligible for HORSE pools.
	ClusterNodeSpec = cluster.NodeSpec
	// ClusterNode is one node: a platform plus capacity and health.
	ClusterNode = cluster.Node
	// NodeHealth is a node's lifecycle state (up, draining, failed).
	NodeHealth = cluster.Health
	// ClusterRunConfig drives one open-loop cluster experiment.
	ClusterRunConfig = cluster.RunConfig
	// ClusterReport aggregates one cluster run: per-mode and per-node
	// latency distributions, failover reasons, and SLO attainment.
	ClusterReport = cluster.Report
	// ClusterPlacement records where one trigger was served and what it
	// cost end to end (wait + init + exec).
	ClusterPlacement = cluster.Placement

	// LoadWorkload binds one function name to an arrival process and a
	// start-mode mix (one clause of the -arrivals flag).
	LoadWorkload = loadgen.Workload
	// StartModeMix is a workload's distribution over start modes.
	StartModeMix = loadgen.ModeMix
)

// Placement policies (ClusterOptions.Policy).
const (
	PlacementRoundRobin  = cluster.PolicyRoundRobin
	PlacementLeastLoaded = cluster.PolicyLeastLoaded
	PlacementULLAffinity = cluster.PolicyULLAffinity
)

// Node health states.
const (
	NodeUp       = cluster.Up
	NodeDraining = cluster.Draining
	NodeFailed   = cluster.Failed
)

// Per-trigger tracing (DESIGN.md §12): deterministic trace IDs, a
// causally linked span tree per trigger, tail-latency attribution by
// stage and start mode, and an SLO flight recorder that retains the
// full span tree for every violating (and worst-K) trigger.
type (
	// TraceRecorder aggregates per-trigger traces: attribution table,
	// violation counts, and flight-recorder retention. Cluster.Run arms
	// one automatically and Cluster.Trace returns it; pass it to another
	// cluster's SetTrace to share it across sequential runs. A run whose
	// recorder another run still holds fails with ErrTraceRecorderInUse.
	// A nil recorder records nothing. Traces it does not retain are
	// recycled; Traces returns copies.
	TraceRecorder = trigtrace.Recorder
	// TraceRecorderOptions configures NewTraceRecorder: the trace-ID
	// seed, the retention sizing, and an optional metrics registry.
	TraceRecorderOptions = trigtrace.RecorderOptions
	// TriggerTrace is one trigger's span tree: typed stage records plus
	// the end-to-end outcome.
	TriggerTrace = trigtrace.TriggerTrace
	// TraceStageLatency is one attribution row: per-stage, per-mode
	// count/total/p50/p99/max.
	TraceStageLatency = trigtrace.StageLatency
)

// ErrTraceRecorderInUse is the error of a Cluster.Run whose trace
// recorder another cluster's run still holds.
var ErrTraceRecorderInUse = trigtrace.ErrRecorderInUse

// NewTraceRecorder builds a trigger recorder, to hand to
// Cluster.SetTrace or to PlatformOptions.Tracer for traced replays.
func NewTraceRecorder(opts TraceRecorderOptions) *TraceRecorder {
	return trigtrace.NewRecorder(opts)
}

// WriteTriggerPerfetto emits trigger span trees as Chrome/Perfetto
// trace-event JSON (one track per trigger, flow-linked stages), loadable
// in ui.perfetto.dev or chrome://tracing. Output is deterministic for a
// given trace set.
func WriteTriggerPerfetto(w io.Writer, traces []*TriggerTrace) error {
	return trigtrace.WritePerfetto(w, traces)
}

// NewCluster builds a multi-node deployment. Every node wraps its own
// platform; the placement policy, seed, fault injector, and metrics
// registry come from opts.
func NewCluster(opts ClusterOptions) (*Cluster, error) { return cluster.New(opts) }

// PlacementPolicies returns the policy names NewCluster accepts.
func PlacementPolicies() []string { return cluster.Policies() }

// ParseWorkloads parses the -arrivals flag syntax: semicolon-separated
// function=spec clauses, e.g.
// "scan=poisson:rate=2000/s;thumbnail=onoff:on=10ms,off=90ms,rate=500/s,mode=warm".
func ParseWorkloads(s string) ([]LoadWorkload, error) { return loadgen.ParseWorkloads(s) }

// Multi-tenancy (DESIGN.md §14): per-tenant admission control and
// weighted-fair sharing of the reserved uLL slots.
type (
	// TenantSpec is one tenant's contract — scheduling weight, trigger
	// rate limit, uLL slot share, memory quota — one clause of the
	// -tenants flag (ClusterOptions.Tenants).
	TenantSpec = tenant.Spec
	// TenantVerdict is one admission decision: admitted, or rejected by
	// the rate gate or the uLL fair-share gate.
	TenantVerdict = tenant.Verdict
	// ClusterTenantSummary is one tenant's accounting row in a
	// ClusterReport: entitlement, slots held, admission outcomes, and
	// SLO attainment.
	ClusterTenantSummary = cluster.TenantSummary
	// LoadPreset is a named, ready-made experiment scenario: an
	// -arrivals workload mix plus the -tenants contract it stresses.
	LoadPreset = loadgen.Preset
)

// ParseTenants parses the -tenants flag syntax: semicolon-separated
// name:key=value clauses, e.g.
// "steady:weight=4,slots=3;greedy:weight=1,rate=2500/s,burst=50".
func ParseTenants(s string) ([]TenantSpec, error) { return tenant.ParseSpecs(s) }

// LoadPresets returns every named scenario preset in display order.
func LoadPresets() []LoadPreset { return loadgen.Presets() }

// LookupLoadPreset resolves a scenario preset by name.
func LookupLoadPreset(name string) (LoadPreset, bool) { return loadgen.LookupPreset(name) }
