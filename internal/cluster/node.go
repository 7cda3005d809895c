package cluster

import (
	"fmt"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
)

// Health is a node's lifecycle state.
type Health int

// The node health states. Transitions only move toward the grave: an Up
// node can drain or fail, a Draining node can fail; nothing recovers
// (bringing capacity back is ScaleCluster's job on the surviving
// nodes — a production recovery path is a named ROADMAP follow-up).
const (
	// Up nodes accept new triggers and cluster-level pool operations.
	Up Health = iota
	// Draining nodes refuse new triggers; their warm capacity has been
	// re-homed onto the surviving nodes by Drain.
	Draining
	// Failed nodes are gone: pools lost, triggers failed over.
	Failed
)

// String returns the health state's report name.
func (h Health) String() string {
	switch h {
	case Up:
		return "up"
	case Draining:
		return "draining"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// NodeSpec sizes one node.
type NodeSpec struct {
	// MemoryMB is the sandbox-memory capacity cluster-level pool
	// placement admits against (default 16384).
	MemoryMB int
	// ULLSlots is the node's reserved uLL capacity: the number of
	// ull_runqueues its hypervisor reserves and the cap on warm
	// HORSE-armed sandboxes cluster placement will put here. 0 means the
	// node is not uLL-reserved: the ull-affinity policy never pins uLL
	// functions to it and ScaleCluster never places HORSE pools on it.
	ULLSlots int
}

// DefaultNodeMemoryMB is the memory capacity of a NodeSpec that sets
// none.
const DefaultNodeMemoryMB = 16384

func (s NodeSpec) withDefaults() NodeSpec {
	if s.MemoryMB == 0 {
		s.MemoryMB = DefaultNodeMemoryMB
	}
	return s
}

// Node is one cluster member: a faas.Platform plus the capacity and
// health bookkeeping the router places against.
//
// Each node runs on its own local virtual clock, synchronized forward
// to the cluster clock before serving a trigger. A node whose local
// clock is ahead of the cluster clock has backlog — virtual work
// already committed but not yet caught up with by cluster time — and
// that lag is the node's load score (DESIGN.md §11).
type Node struct {
	id       string
	index    int
	spec     NodeSpec
	platform *faas.Platform //horselint:shardlocal
	health   Health         //horselint:coordinator

	// queue holds the triggers routed here in the current wave of the
	// conservative-PDES run loop (DESIGN.md §13), in routing order. The
	// coordinator appends between barriers; during a serve barrier only
	// the node's own shard drains it, and it is empty again at every
	// barrier's end.
	//
	//horselint:shardlocal
	queue []*pendingJob

	// placements counts routing decisions that picked this node (the
	// router charges it on the coordinator); served counts triggers that
	// completed here (the serving shard charges it). The difference is
	// picks that failed over elsewhere.
	placements uint64 //horselint:coordinator
	served     uint64 //horselint:shardlocal

	// out is the node's response buffer: serveJob hands it to the
	// platform, an appending function body writes its output into it,
	// and the node keeps whichever buffer comes back larger. A served
	// job's output aliases it until the node serves its next trigger.
	// It starts nil and grows on the first serve.
	//
	//horselint:shardlocal
	out []byte

	// triggers and load are the node's per-trigger instruments, prebound
	// at cluster construction so the trigger hot path skips the
	// registry's name-format + map-lookup cost (nil registry ⇒ nil
	// handles, inert).
	triggers *telemetry.Counter
	load     *telemetry.Gauge
}

// ID returns the node's stable identifier ("node00", "node01", …).
func (n *Node) ID() string { return n.id }

// Platform returns the node's FaaS platform.
func (n *Node) Platform() *faas.Platform { return n.platform }

// Health returns the node's lifecycle state.
func (n *Node) Health() Health { return n.health }

// ULLReserved reports whether the node reserves uLL capacity.
func (n *Node) ULLReserved() bool { return n.spec.ULLSlots > 0 }

// Placements returns how many routing decisions picked this node.
func (n *Node) Placements() uint64 { return n.placements }

// Served returns how many triggers completed on this node.
func (n *Node) Served() uint64 { return n.served }

// Lag is the node's load score: how far its local clock runs ahead of
// the cluster instant now — the virtual-time backlog a new trigger
// would wait behind. A node that has never served is at the epoch and
// reports zero. Lag is read on both sides of the barrier — the router
// scores nodes with it between barriers, and the serving shard samples
// it for the load gauge — which is safe because it derives from the
// node's own clock, never from coordinator-owned state.
//
//horselint:hotpath
//horselint:shardphase
func (n *Node) Lag(now simtime.Time) simtime.Duration {
	local := n.platform.Clock().Now()
	if local.After(now) {
		return local.Sub(now)
	}
	return 0
}

// committedMB returns the node's live sandbox-memory commitment: the
// sum over deployments of the platform's own pool attribution
// (PoolStats.CommittedMB). It is computed from the pools rather than
// kept as a ledger so destroy failures and pool churn inside the
// platform can never make the admission check drift.
func (n *Node) committedMB(c *Cluster) int {
	total := 0
	for _, name := range c.DeploymentNames() {
		stats, err := n.platform.PoolStats(name)
		if err != nil {
			// The deployment is registered on every node by construction;
			// a lookup failure means it was never registered here, which
			// commits nothing.
			continue
		}
		total += stats.CommittedMB
	}
	return total
}

// poolCount returns the node's warm-pool entries for one deployment and
// policy (0 when the deployment is unknown here).
func (n *Node) poolCount(name string, policy core.Policy) int {
	d, err := n.platform.Deployment(name)
	if err != nil {
		return 0
	}
	return d.PoolCount(policy)
}

// horseOccupied returns the node's HORSE pool entries held by every
// deployment except the named one — the reserved uLL slots already
// spoken for when that deployment scales here.
func (n *Node) horseOccupied(c *Cluster, except string) int {
	total := 0
	for name := range c.deployments {
		if name == except {
			continue
		}
		total += n.poolCount(name, core.Horse)
	}
	return total
}
