package vmm

import "github.com/horse-faas/horse/internal/simtime"

// CostModel holds the virtual-time constants of the simulated
// virtualization system, calibrated in DESIGN.md §5 so that the
// reproduction matches the paper's headline numbers: a vanilla resume
// grows from ≈350 ns (1 vCPU) to ≈1.15 µs (36 vCPUs) while the HORSE fast
// path stays constant at 150 ns (34 + 110 + 6).
type CostModel struct {
	// Parse is step ①: parsing the resume command's input parameters.
	Parse simtime.Duration
	// Lock is step ②: acquiring the global resume lock.
	Lock simtime.Duration
	// Sanity is step ③: verifying the target sandbox is paused.
	Sanity simtime.Duration
	// Finalize is step ⑥: releasing the lock and flipping the state.
	Finalize simtime.Duration

	// MergeCold is step ④ for the first vCPU: a cache-cold walk of the
	// target run queue.
	MergeCold simtime.Duration
	// MergeWarm is step ④ for each subsequent vCPU of the same resume,
	// with the queue cache-warm.
	MergeWarm simtime.Duration
	// LoadUpdate is step ⑤ once per vCPU: the lock-protected affine load
	// update.
	LoadUpdate simtime.Duration

	// HorseFixed replaces steps ①②③⑥ on the pre-armed fast path.
	HorseFixed simtime.Duration
	// PSMMerge is the complete P²SM merge phase: the paper's merge-thread
	// dispatch plus two pointer writes per posA key, independent of queue
	// length.
	PSMMerge simtime.Duration
	// CoalescedUpdate is the single fused load update of §4.2.
	CoalescedUpdate simtime.Duration

	// PauseVCPURemove is the per-vCPU cost of pulling an entity off its
	// run queue when pausing.
	PauseVCPURemove simtime.Duration
	// PauseStructMaint is the per-vCPU cost of inserting into merge_vcpus
	// and posA at pause time (HORSE's pause-side overhead, §5.2).
	PauseStructMaint simtime.Duration
	// PauseCoalescePrecompute is the one-off cost of computing αⁿ and the
	// geometric-series term at pause time.
	PauseCoalescePrecompute simtime.Duration
	// TargetSyncPerElement is the cost of resynchronizing one paused
	// sandbox's arrayB/posA after a ull_runqueue change.
	TargetSyncPerElement simtime.Duration

	// MergePreemptPerVCPU is the tail-latency penalty a long-running
	// function pays when a P²SM merge thread preempts it: context switch
	// in, the O(1) splice, context switch out (§5.4 — at 36 vCPUs this
	// accumulates to ≈30 µs on the 99th percentile).
	MergePreemptPerVCPU simtime.Duration

	// ColdInit is a full sandbox creation: microVM spawn, guest kernel
	// boot and language-runtime initialization (Table 1: 1.5×10⁶ µs).
	ColdInit simtime.Duration
	// RestoreInit is a FaaSnap-style snapshot restore (Table 1: 1300 µs).
	RestoreInit simtime.Duration
	// WarmDispatch is the FaaS control-plane cost of routing a trigger to
	// an existing sandbox (Table 1 warm init 1.1 µs = dispatch + vanilla
	// 1-vCPU resume). The HORSE path skips it: the trigger is pre-armed
	// directly to the fast resume path.
	WarmDispatch simtime.Duration
}

// DefaultCostModel returns the calibration from DESIGN.md §5.
func DefaultCostModel() CostModel {
	return CostModel{
		Parse:    30 * simtime.Nanosecond,
		Lock:     20 * simtime.Nanosecond,
		Sanity:   15 * simtime.Nanosecond,
		Finalize: 35 * simtime.Nanosecond,

		MergeCold:  240 * simtime.Nanosecond,
		MergeWarm:  16 * simtime.Nanosecond,
		LoadUpdate: 7 * simtime.Nanosecond,

		HorseFixed:      34 * simtime.Nanosecond,
		PSMMerge:        110 * simtime.Nanosecond,
		CoalescedUpdate: 6 * simtime.Nanosecond,

		PauseVCPURemove:         22 * simtime.Nanosecond,
		PauseStructMaint:        35 * simtime.Nanosecond,
		PauseCoalescePrecompute: 18 * simtime.Nanosecond,
		TargetSyncPerElement:    9 * simtime.Nanosecond,

		MergePreemptPerVCPU: 810 * simtime.Nanosecond,

		ColdInit:     simtime.Duration(1.5 * float64(simtime.Second)),
		RestoreInit:  1300 * simtime.Microsecond,
		WarmDispatch: 753 * simtime.Nanosecond,
	}
}

// XenCostModel returns the calibration for the Xen 4.17 flavor of the
// prototype. The paper implements HORSE in both Firecracker (Linux KVM)
// and Xen and reports "similar observations" (§3.2, §5); Xen's credit2
// run-queue surgery and its XenStore-free resume path (the LightVM
// in-memory store, §3.2) carry slightly different constants: a cheaper
// parameter parse (no userspace VMM round trip) but a costlier queue
// walk in the hypervisor.
func XenCostModel() CostModel {
	m := DefaultCostModel()
	m.Parse = 18 * simtime.Nanosecond // in-memory store, no VMM hop
	m.Lock = 24 * simtime.Nanosecond  // global scheduler lock
	m.MergeCold = 262 * simtime.Nanosecond
	m.MergeWarm = 17 * simtime.Nanosecond
	m.LoadUpdate = 8 * simtime.Nanosecond // credit2 per-queue load average
	return m
}

// Step labels used in resume/pause breakdowns. Fig. 2 groups the resume
// into the paper's six steps; StepMerge and StepLoad are the two
// operations HORSE attacks.
const (
	StepParse    = "parse"     // ①
	StepLock     = "lock"      // ②
	StepSanity   = "sanity"    // ③
	StepMerge    = "merge"     // ④
	StepLoad     = "load"      // ⑤
	StepFinalize = "finalize"  // ⑥
	StepFastPath = "fastpath"  // HORSE entry/exit (replaces ①②③⑥)
	StepPSM      = "psm-merge" // HORSE step-④ replacement
	StepCoalesce = "coalesce"  // HORSE step-⑤ replacement

	StepPauseRemove   = "pause-remove"
	StepPauseMaint    = "pause-psm-maint"
	StepPauseCoalesce = "pause-coalesce"
)
