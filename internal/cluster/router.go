package cluster

import (
	"errors"
	"fmt"
	"sort"

	"github.com/horse-faas/horse/internal/simtime"
)

// Routing errors.
var (
	// ErrNoNodes means no healthy node could accept the trigger: every
	// node is draining, failed, or already excluded by failover.
	ErrNoNodes = errors.New("cluster: no eligible nodes")
	// ErrUnknownPolicy reports an unrecognized placement-policy name.
	ErrUnknownPolicy = errors.New("cluster: unknown placement policy")
)

// Placement-policy names accepted by Options.Policy and the horsesim
// cluster -policy flag.
const (
	// PolicyRoundRobin rotates through healthy nodes in index order —
	// the oblivious baseline.
	PolicyRoundRobin = "round-robin"
	// PolicyLeastLoaded picks the healthy node with the smallest
	// virtual-time backlog (Node.Lag), ties broken by index.
	PolicyLeastLoaded = "least-loaded"
	// PolicyULLAffinity pins uLL functions to uLL-reserved nodes with
	// consistent hashing, spilling along the hash ring when the pinned
	// node's backlog exceeds the bounded-load threshold; non-uLL
	// traffic is steered to the unreserved nodes so it cannot queue
	// ahead of uLL triggers.
	PolicyULLAffinity = "ull-affinity"
)

// Policies returns the placement-policy names in stable order.
func Policies() []string {
	return []string{PolicyRoundRobin, PolicyLeastLoaded, PolicyULLAffinity}
}

// placementPolicy picks a node for one routing decision. excluded holds
// node indexes already ruled out by this trigger's failover loop.
// Implementations must be deterministic: same cluster state, same
// arguments, same answer.
type placementPolicy interface {
	name() string
	pick(c *Cluster, fn string, ull bool, excluded map[int]bool, now simtime.Time) (*Node, error)
	// reset returns any cross-trigger policy state (cursors) to its
	// just-built value, so back-to-back Runs on one cluster route
	// exactly like runs on a fresh cluster.
	reset()
}

// Router applies the cluster's placement policy and keeps the per-node
// placement counters. Tenant admission runs before Pick (see newJob), so
// a rejected trigger never consumes a routing decision.
type Router struct {
	policy placementPolicy
}

func newRouter(policy string, c *Cluster) (*Router, error) {
	switch policy {
	case PolicyRoundRobin:
		return &Router{policy: &roundRobin{}}, nil
	case PolicyLeastLoaded:
		return &Router{policy: leastLoaded{}}, nil
	case PolicyULLAffinity:
		return &Router{policy: newULLAffinity(c)}, nil
	default:
		return nil, fmt.Errorf("%w: %q (known: round-robin, least-loaded, ull-affinity)", ErrUnknownPolicy, policy)
	}
}

// Policy returns the active placement policy's name.
func (r *Router) Policy() string { return r.policy.name() }

// Pick runs one routing decision and charges the placement to the
// chosen node. Routing mutates cross-node state (the placement charge,
// policy cursors and scratch), so it is coordinator-only: the PDES
// argument (DESIGN.md §13) routes every arrival between barriers.
//
//horselint:hotpath
//horselint:coordinator
func (r *Router) Pick(c *Cluster, fn string, ull bool, excluded map[int]bool, now simtime.Time) (*Node, error) {
	n, err := r.policy.pick(c, fn, ull, excluded, now)
	if err != nil {
		return nil, err
	}
	n.placements++
	return n, nil
}

// eligible reports whether the node can take a new trigger in this
// routing decision.
//
//horselint:hotpath
func eligible(n *Node, excluded map[int]bool) bool {
	return n.health == Up && !excluded[n.index]
}

// roundRobin rotates a cursor over the node list, skipping ineligible
// nodes. The cursor advances past the chosen node so consecutive
// triggers spread out even when every node is healthy.
type roundRobin struct {
	next int //horselint:coordinator
}

func (*roundRobin) name() string { return PolicyRoundRobin }

//horselint:coordinator
func (rr *roundRobin) reset() { rr.next = 0 }

//horselint:hotpath
//horselint:coordinator
func (rr *roundRobin) pick(c *Cluster, fn string, ull bool, excluded map[int]bool, now simtime.Time) (*Node, error) {
	total := len(c.nodes)
	for i := 0; i < total; i++ {
		n := c.nodes[(rr.next+i)%total]
		if eligible(n, excluded) {
			rr.next = (n.index + 1) % total
			return n, nil
		}
	}
	return nil, ErrNoNodes
}

// leastLoaded picks the eligible node with the smallest virtual-time
// backlog; ties (all idle nodes report zero lag) break toward the
// lowest index, which is deterministic but makes the policy pile cold
// traffic onto node00 until it develops lag — exactly the herding the
// paper's bounded-load argument predicts.
type leastLoaded struct{}

func (leastLoaded) name() string { return PolicyLeastLoaded }

func (leastLoaded) reset() {}

//horselint:hotpath
func (leastLoaded) pick(c *Cluster, fn string, ull bool, excluded map[int]bool, now simtime.Time) (*Node, error) {
	return minLag(c.nodes, excluded, now)
}

// minLag returns the eligible node with the smallest lag (ties to the
// lowest index), or ErrNoNodes.
//
//horselint:hotpath
func minLag(nodes []*Node, excluded map[int]bool, now simtime.Time) (*Node, error) {
	var best *Node
	var bestLag simtime.Duration
	for _, n := range nodes {
		if !eligible(n, excluded) {
			continue
		}
		lag := n.Lag(now)
		if best == nil || lag < bestLag {
			best, bestLag = n, lag
		}
	}
	if best == nil {
		return nil, ErrNoNodes
	}
	return best, nil
}

// Bounded-load parameters of the ull-affinity policy.
const (
	// DefaultVirtualNodes is the number of ring points per reserved node.
	DefaultVirtualNodes = 64
	// DefaultBoundFactor caps a pinned node's acceptable backlog at this
	// multiple of the mean backlog across reserved nodes (the classic
	// consistent-hashing-with-bounded-loads c parameter).
	DefaultBoundFactor = 2.0
	// DefaultMinHeadroom is the backlog floor below which a pinned node
	// is always acceptable, so an idle cluster never spills placements
	// off the hash ring just because the mean lag is zero.
	DefaultMinHeadroom = 100 * simtime.Microsecond
)

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	hash  uint64
	index int // node index
}

// ullAffinity implements consistent hashing with bounded loads over the
// uLL-reserved nodes. A uLL function hashes to a ring position; the
// first reserved node at or after it owns the function. Ownership only
// moves when the owner's backlog exceeds the bound — then the walk
// continues around the ring, so spill is deterministic and minimal.
// Non-uLL functions avoid the reserved nodes entirely while any
// unreserved node is healthy.
type ullAffinity struct {
	ring     []ringPoint
	reserved []int   // node indexes with ULLSlots > 0, ascending
	unres    []*Node // nodes without uLL reservations, index order

	// visited is per-pick scratch for the ring walk: visited[i] ==
	// visitGen marks node i as seen this pick. The node set is fixed at
	// construction and routing runs only on the coordinator, so the
	// scratch keeps the route path allocation-free without a lock.
	visited  []uint32 //horselint:coordinator
	visitGen uint32   //horselint:coordinator
}

func newULLAffinity(c *Cluster) *ullAffinity {
	a := &ullAffinity{visited: make([]uint32, len(c.nodes))}
	for _, n := range c.nodes {
		if !n.ULLReserved() {
			a.unres = append(a.unres, n)
			continue
		}
		a.reserved = append(a.reserved, n.index)
		for k := 0; k < DefaultVirtualNodes; k++ {
			a.ring = append(a.ring, ringPoint{
				hash:  hash64(fmt.Sprintf("%s#%d", n.id, k)),
				index: n.index,
			})
		}
	}
	sort.Slice(a.ring, func(i, j int) bool {
		if a.ring[i].hash != a.ring[j].hash {
			return a.ring[i].hash < a.ring[j].hash
		}
		return a.ring[i].index < a.ring[j].index
	})
	return a
}

func (*ullAffinity) name() string { return PolicyULLAffinity }

// reset is a no-op: the ring and spill thresholds are pure functions of
// construction-time state, and the visited scratch is per-pick.
func (*ullAffinity) reset() {}

//horselint:hotpath
//horselint:coordinator
func (a *ullAffinity) pick(c *Cluster, fn string, ull bool, excluded map[int]bool, now simtime.Time) (*Node, error) {
	if !ull {
		// Steer background traffic off the reserved nodes while any
		// unreserved node can take it.
		if n, err := minLag(a.unres, excluded, now); err == nil {
			return n, nil
		}
		return minLag(c.nodes, excluded, now)
	}
	if len(a.ring) == 0 {
		// No reserved capacity configured: degrade to least-loaded.
		return minLag(c.nodes, excluded, now)
	}
	allowed := a.allowedLag(c, excluded, now)
	// Binary search for the first ring point at or after the function's
	// hash (an open-coded sort.Search: the closure it takes would
	// allocate on every pick).
	target := hash64(fn)
	lo, hi := 0, len(a.ring)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.ring[mid].hash < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := lo % len(a.ring)
	// Walk the ring once, visiting each distinct node in ring order.
	// Scratch generation bump; on wraparound, clear and restart at 1.
	a.visitGen++
	if a.visitGen == 0 {
		for i := range a.visited {
			a.visited[i] = 0
		}
		a.visitGen = 1
	}
	seen := 0
	var fallback *Node
	var fallbackLag simtime.Duration
	for i := 0; i < len(a.ring) && seen < len(a.reserved); i++ {
		pt := a.ring[(start+i)%len(a.ring)]
		if a.visited[pt.index] == a.visitGen {
			continue
		}
		a.visited[pt.index] = a.visitGen
		seen++
		n := c.nodes[pt.index]
		if !eligible(n, excluded) {
			continue
		}
		lag := n.Lag(now)
		if lag <= allowed {
			return n, nil
		}
		// Remember the least-lagged reserved node in case every one of
		// them is over the bound (the bound then degenerates to
		// least-loaded over the reserved set, still deterministic).
		if fallback == nil || lag < fallbackLag {
			fallback, fallbackLag = n, lag
		}
	}
	if fallback != nil {
		return fallback, nil
	}
	// Every reserved node is down or excluded: spill to any healthy node
	// so availability beats affinity.
	return minLag(c.nodes, excluded, now)
}

// allowedLag computes the bounded-load threshold: DefaultBoundFactor ×
// the mean backlog across eligible reserved nodes, floored at
// DefaultMinHeadroom.
//
//horselint:hotpath
func (a *ullAffinity) allowedLag(c *Cluster, excluded map[int]bool, now simtime.Time) simtime.Duration {
	var sum simtime.Duration
	count := 0
	for _, idx := range a.reserved {
		n := c.nodes[idx]
		if !eligible(n, excluded) {
			continue
		}
		sum += n.Lag(now)
		count++
	}
	if count == 0 {
		return DefaultMinHeadroom
	}
	bound := simtime.Duration(DefaultBoundFactor * float64(sum) / float64(count))
	if bound < DefaultMinHeadroom {
		return DefaultMinHeadroom
	}
	return bound
}

// FNV-1a constants (hash/fnv's, open-coded: the stdlib hash object and
// the []byte conversion it needs both allocate on every pick).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// hash64 is the ring hash (FNV-1a, bit-identical to hash/fnv New64a
// and to the seed-mixing hash used by faultinject and loadgen).
//
//horselint:hotpath
func hash64(s string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}
