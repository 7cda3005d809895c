package vmm

import (
	"fmt"

	"github.com/horse-faas/horse/internal/credit2"
	"github.com/horse-faas/horse/internal/runqueue"
	"github.com/horse-faas/horse/internal/simtime"
)

// SandboxState is the lifecycle state of a sandbox.
type SandboxState int

// Sandbox lifecycle states.
const (
	// StateRunning means the sandbox's vCPUs sit on run queues.
	StateRunning SandboxState = iota + 1
	// StatePaused means the vCPUs have been removed from their queues
	// (the keep-alive state of a warm sandbox, paper §3).
	StatePaused
	// StateStopped means the sandbox has been destroyed.
	StateStopped
)

// String returns the state's name.
func (s SandboxState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// InitialCredit is the scheduler credit a fresh vCPU starts with,
// mirroring credit2's CSCHED2_CREDIT_INIT (10.5 ms in credit units).
const InitialCredit int64 = 10_500_000

// Placement records where one vCPU currently sits.
type Placement struct {
	// Queue is the run queue holding the vCPU.
	Queue *runqueue.Queue
	// Element is the vCPU's node on that queue.
	Element *runqueue.Element
}

// Sandbox is one microVM: a set of vCPUs plus memory, managed by a
// Hypervisor. Resume-path implementations (package core) manipulate
// placements through the ResumeContext/PauseContext frames.
type Sandbox struct {
	id    string
	vcpus []*runqueue.Entity
	// accounts holds each vCPU's credit2 handle, by vCPU index.
	accounts   []*credit2.Account
	memoryMB   int
	state      SandboxState
	placements []Placement

	// ull marks the sandbox as hosting an ultra-low-latency workload;
	// HORSE manages its pause/resume through the reserved queues.
	ull bool

	// resumedAt is when the sandbox last became runnable; pause burns
	// each vCPU's credit for the span since then.
	resumedAt simtime.Time
}

// account returns the credit2 handle of vCPU v, placed i-th. Placements
// mostly follow vCPU order, so vCPU i is tried first.
func (s *Sandbox) account(v *runqueue.Entity, i int) *credit2.Account {
	if i < len(s.vcpus) && s.vcpus[i] == v {
		return s.accounts[i]
	}
	for j, w := range s.vcpus {
		if w == v {
			return s.accounts[j]
		}
	}
	return nil
}

// ID returns the sandbox identifier.
func (s *Sandbox) ID() string { return s.id }

// State returns the lifecycle state.
func (s *Sandbox) State() SandboxState { return s.state }

// MemoryMB returns the allocated guest memory.
func (s *Sandbox) MemoryMB() int { return s.memoryMB }

// VCPUs returns the sandbox's virtual CPUs. Callers must not mutate the
// returned slice.
func (s *Sandbox) VCPUs() []*runqueue.Entity { return s.vcpus }

// NumVCPUs returns the vCPU count.
func (s *Sandbox) NumVCPUs() int { return len(s.vcpus) }

// ULL reports whether the sandbox is flagged for the uLL fast path.
func (s *Sandbox) ULL() bool { return s.ull }

// Placements returns where each vCPU currently sits (empty while paused).
// Callers must not mutate the returned slice.
func (s *Sandbox) Placements() []Placement { return s.placements }

// ResumedAt returns when the sandbox last became runnable.
func (s *Sandbox) ResumedAt() simtime.Time { return s.resumedAt }
