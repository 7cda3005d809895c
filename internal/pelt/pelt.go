// Package pelt implements per-entity load tracking for run queues, the
// second bottleneck HORSE attacks (paper §3.1 step ⑤ and §4.2).
//
// Virtualization systems track a per-run-queue load figure consumed by the
// frequency-scaling governor (DVFS) and by thread load balancing. The
// family of algorithms — Linux's PELT is the canonical member — share one
// structural property the paper exploits: when a paused vCPU is placed on
// a run queue, the load update always has the affine form
//
//	L(x) = α·x + β
//
// for constants α (a decay factor in (0,1]) and β (the entity's
// contribution). A vanilla resume applies L once per vCPU under the run
// queue lock; HORSE instead *coalesces* the n applications into the single
// closed form
//
//	Lⁿ(x) = αⁿ·x + β·(1-αⁿ)/(1-α)
//
// whose two coefficients are precomputed at pause time (paper §4.2.2).
//
// (The paper's §4.2.1 prints the series bound as 1-α^(n-1); the geometric
// sum for n applications is Σ_{i=0}^{n-1} αⁱ = (1-αⁿ)/(1-α), which is what
// the identity test in this package verifies against the iterated form.)
package pelt

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// DefaultAlpha mirrors the PELT decay constant y where y^32 = 0.5, i.e.
// the weight of a contribution halves every 32 periods.
var DefaultAlpha = math.Pow(0.5, 1.0/32.0)

// DefaultBeta is the per-entity load contribution of one freshly resumed,
// fully runnable vCPU in scaled load units (1024 ≡ one fully loaded CPU,
// as in the kernel's NICE_0_LOAD scaling).
const DefaultBeta = 1024.0

// Update applies one affine load update L(x) = αx + β. It is the step-⑤
// primitive the vanilla resume path performs once per vCPU.
func Update(x, alpha, beta float64) float64 { return alpha*x + beta }

// Coefficients is the pause-time precomputation of §4.2.2: the pair
// (αⁿ, β·(1-αⁿ)/(1-α)) stored as a sandbox attribute so the resume path
// performs a single fused update.
type Coefficients struct {
	// AlphaN is αⁿ.
	AlphaN float64
	// BetaSum is β·Σ_{i=0}^{n-1} αⁱ.
	BetaSum float64
	// N records the number of coalesced applications, for introspection.
	N int
}

// ErrBadCoalesce reports invalid coalescing parameters.
var ErrBadCoalesce = errors.New("pelt: invalid coalesce parameters")

// Coalesce precomputes the coefficients for applying L(x)=αx+β n times.
// n must be >= 1 and α must be in (0, 1]; β may be any finite value.
func Coalesce(alpha, beta float64, n int) (Coefficients, error) {
	if n < 1 {
		return Coefficients{}, fmt.Errorf("%w: n=%d", ErrBadCoalesce, n)
	}
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		return Coefficients{}, fmt.Errorf("%w: alpha=%v", ErrBadCoalesce, alpha)
	}
	if math.IsNaN(beta) || math.IsInf(beta, 0) {
		return Coefficients{}, fmt.Errorf("%w: beta=%v", ErrBadCoalesce, beta)
	}
	if alpha == 1 {
		// Degenerate geometric series: Σ = n.
		return Coefficients{AlphaN: 1, BetaSum: beta * float64(n), N: n}, nil
	}
	alphaN := math.Pow(alpha, float64(n))
	return Coefficients{
		AlphaN:  alphaN,
		BetaSum: beta * (1 - alphaN) / (1 - alpha),
		N:       n,
	}, nil
}

// Apply performs the single fused update: αⁿ·x + β·(1-αⁿ)/(1-α).
func (c Coefficients) Apply(x float64) float64 { return c.AlphaN*x + c.BetaSum }

// IterUpdate applies L(x)=αx+β n times, the vanilla behaviour. It is the
// reference against which Coalesce is property-tested and benchmarked.
func IterUpdate(x, alpha, beta float64, n int) float64 {
	for i := 0; i < n; i++ {
		x = Update(x, alpha, beta)
	}
	return x
}

// RunqueueLoad is the lock-protected load variable of one run queue
// (paper abstract: "the update of a lock-protected variable, which
// represents the vCPUs' load on each CPU"), updated with the package
// constants DefaultAlpha and DefaultBeta. The mutex models the real
// contention point: vanilla takes it once per vCPU, HORSE once per
// resume.
type RunqueueLoad struct {
	mu   sync.Mutex
	load float64
}

// NewRunqueueLoad returns an empty load tracker.
func NewRunqueueLoad() *RunqueueLoad { return &RunqueueLoad{} }

// Load returns the current load figure.
func (r *RunqueueLoad) Load() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.load
}

// PlaceEntity performs one vanilla step-⑤ update under the lock, as the
// unmodified resume path does for every vCPU.
func (r *RunqueueLoad) PlaceEntity() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.load = Update(r.load, DefaultAlpha, DefaultBeta)
}

// PlaceCoalesced applies precomputed coefficients in a single locked
// update — HORSE's step-⑤ replacement.
func (r *RunqueueLoad) PlaceCoalesced(c Coefficients) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.load = c.Apply(r.load)
}

// RemoveEntity subtracts one entity's contribution when a vCPU leaves the
// queue (sandbox pause). The inverse of the affine placement is
// approximate in real PELT; we model the kernel's behaviour of removing
// the entity's tracked contribution directly.
func (r *RunqueueLoad) RemoveEntity() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.load -= DefaultBeta
	if r.load < 0 {
		r.load = 0
	}
}
