// Package cluster scales the single-node HORSE platform out to a
// deterministic multi-node deployment: N faas.Platform nodes behind a
// Router with pluggable placement policies, cluster-wide pool
// operations, and failure handling that reuses the platform's graceful
// degradation when a node dies mid-trigger (DESIGN.md §11).
//
// Everything runs on virtual time. The cluster owns a global clock
// (advanced epoch by epoch as Run pulls the loadgen arrival stream);
// each node's platform keeps its own local clock, synchronized forward
// to the cluster instant before serving. A node whose local clock runs ahead of the
// cluster clock has backlog, and that lag is both the queueing delay
// the next trigger will see and the load score the least-loaded and
// bounded-load policies place against. Same seed, same options ⇒ the
// same placements, the same failures, and a byte-identical report.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
	"github.com/horse-faas/horse/internal/tenant"
	"github.com/horse-faas/horse/internal/trigtrace"
	"github.com/horse-faas/horse/internal/workload"
)

// Cluster errors.
var (
	// ErrUnknownNode reports a node id that is not in the cluster.
	ErrUnknownNode = errors.New("cluster: unknown node")
	// ErrNodeNotUp reports a lifecycle operation on a node that has
	// already left the Up state.
	ErrNodeNotUp = errors.New("cluster: node is not up")
	// ErrInvokeNotRetried marks an invocation-failure that the cluster
	// deliberately did not fail over: the function body started running,
	// so re-triggering it on another node would double-execute user code.
	ErrInvokeNotRetried = errors.New("cluster: invocation failed; not retried on another node")
)

// Failover reasons, used as the cluster_failovers_total{reason} label
// and the report's failover breakdown.
const (
	// ReasonNodeFailed is a routing decision voided by the picked node
	// failing (faultinject site cluster.node.fail).
	ReasonNodeFailed = "node-failed"
	// ReasonNodeDraining is a routing decision voided by the picked node
	// starting a drain (faultinject site cluster.node.drain).
	ReasonNodeDraining = "node-draining"
	// ReasonTriggerFailed is a trigger whose serving node exhausted the
	// platform's own fallback chain and was retried elsewhere.
	ReasonTriggerFailed = "trigger-failed"
)

// deploymentEntry is the cluster's record of one registered function.
// index is its registration order, the dense key of the report's
// per-function tallies. tenant is the owning tenant's index in the
// cluster's controller (-1 for untenanted functions, which are never
// admission-gated); tenantName is its name, carried into traces and
// the report; rejects holds the tenant's admission errors, indexed by
// verdict. slo is the latency budget the function's traces and SLO
// tallies are judged against (0 = none). deps holds the function's
// deployment on each node, by node index, so serving a trigger looks
// nothing up by name.
type deploymentEntry struct {
	name       string
	index      int
	deps       []*faas.Deployment
	spec       faas.SandboxSpec
	ull        bool
	tenant     int
	tenantName string
	rejects    admissionErrors
	slo        simtime.Duration //horselint:coordinator
}

// Options configures a Cluster.
type Options struct {
	// Specs sizes the cluster: one node per entry, in index order
	// (defaults applied). At least one is required.
	Specs []NodeSpec
	// Policy is the placement policy name (default round-robin).
	Policy string
	// Seed drives every PRNG in the cluster's run (loadgen streams; the
	// fault injector is seeded by its own constructor).
	Seed int64
	// Faults is checked at the cluster.node.* sites on every routing
	// decision and threaded into each node's platform so the §7 sites
	// (create/pause/resume/restore/invoke/destroy) fire there too. Nil
	// injects nothing.
	Faults *faultinject.Injector
	// Metrics receives the cluster instruments and is shared by every
	// node's platform, so per-mode counters aggregate cluster-wide.
	Metrics *telemetry.Registry
	// Fallback is each node's graceful-degradation config; the zero
	// value disables per-node fallback.
	Fallback faas.FallbackConfig
	// Tenants, when non-empty, arms the multi-tenant admission gate:
	// every tenant-bound function's triggers are rate-limited against
	// its token bucket, and its uLL triggers share the reserved uLL
	// admission bandwidth by weight (DESIGN.md §14). The reserved slot
	// entitlements are apportioned over the cluster's total ULLSlots.
	Tenants []tenant.Spec
	// ULLAdmitRate is the aggregate uLL admissions/second the tenants'
	// weighted fair shares divide (0 disables the share gate; per-tenant
	// rate limits still apply).
	ULLAdmitRate float64
	// Shards is how many shards Run's conservative-PDES serve phase
	// splits the node queues into (DESIGN.md §13): the coordinator
	// serves the lowest busy shard itself, Shards−1 workers the rest.
	// Values outside [1, len(nodes)] are clamped; 0 selects 1
	// (sequential). The report is byte-identical at every shard count:
	// sharding bounds only which goroutine serves which node, never
	// what any node computes.
	Shards int
}

// Cluster is a deterministic multi-node HORSE deployment.
//
// The field annotations below encode the conservative-PDES ownership
// split (DESIGN.md §9, §13): coordinator-owned state may only be
// touched between serve barriers, and the shardsafe/sharedrand
// analyzers reject any shard-phase path that reaches it. clock and
// nodes stay unannotated on purpose — the node *list* is immutable
// during a run and read by every shard to find its own nodes.
type Cluster struct {
	clock  *simtime.Clock
	nodes  []*Node
	router *Router //horselint:coordinator

	// deployments looks an entry up by function name; entries lists
	// the same entries by index.
	deployments map[string]*deploymentEntry
	entries     []*deploymentEntry
	faults      *faultinject.Injector //horselint:coordinator
	metrics     *telemetry.Registry
	seed        int64
	shards      int

	// tenants is the multi-tenant admission controller (nil without a
	// tenant contract). Admission runs on the coordinator in arrival
	// order — the gate is cross-tenant shared state, exactly the kind
	// of decision the PDES contract centralizes.
	tenants *tenant.Controller //horselint:coordinator

	// rec and seq drive per-trigger tracing: rec mints one context per
	// arrival (seq is the arrival index its trace ID derives from). rec
	// is nil when tracing is off; seq counts every arrival regardless,
	// so arming a recorder mid-stream does not shift later trace IDs.
	// claim is Run's hold on rec, the zero Claim outside a run: a run
	// starts its contexts and reads its aggregates through it, without
	// locking per arrival.
	rec   *trigtrace.Recorder //horselint:coordinator
	claim trigtrace.Claim     //horselint:coordinator
	seq   uint64              //horselint:coordinator

	failovers map[string]uint64 //horselint:coordinator

	// freeJobs holds finished pendingJobs, zeroed, for newJob to reuse:
	// a run allocates a job only when more are in flight at once than
	// ever before.
	freeJobs []*pendingJob //horselint:coordinator
	// scheduled, retry and busy are serveEpoch's per-wave scratch: the
	// jobs queued on nodes, those that must re-route, and which shards
	// own a node with a queued job.
	scheduled, retry []*pendingJob //horselint:coordinator
	busy             []bool        //horselint:coordinator
}

// New builds a cluster of fresh nodes at the simulation epoch.
//
//horselint:coordinator
func New(opts Options) (*Cluster, error) {
	specs := opts.Specs
	if len(specs) == 0 {
		return nil, errors.New("cluster: need at least one node")
	}
	policy := opts.Policy
	if policy == "" {
		policy = PolicyRoundRobin
	}
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > len(specs) {
		shards = len(specs)
	}
	if opts.ULLAdmitRate != 0 && len(opts.Tenants) == 0 {
		return nil, fmt.Errorf("cluster: uLL admission rate %g needs tenants", opts.ULLAdmitRate)
	}
	c := &Cluster{
		clock:       simtime.NewClock(),
		deployments: make(map[string]*deploymentEntry),
		faults:      opts.Faults,
		metrics:     opts.Metrics,
		seed:        opts.Seed,
		shards:      shards,
		failovers:   make(map[string]uint64),
		busy:        make([]bool, shards),
	}
	for i, spec := range specs {
		id := fmt.Sprintf("node%02d", i)
		if spec.ULLSlots < 0 || spec.MemoryMB < 0 {
			return nil, fmt.Errorf("cluster: %s: negative capacity (ULLSlots %d, MemoryMB %d)", id, spec.ULLSlots, spec.MemoryMB)
		}
		spec = spec.withDefaults()
		ullQueues := spec.ULLSlots
		if ullQueues < 1 {
			ullQueues = 1
		}
		p, err := faas.New(faas.Options{
			ULLQueues: ullQueues,
			Metrics:   opts.Metrics,
			// Each node's platform gets its own derived fault stream so
			// the §7 sites draw independently per node: a shard serving
			// node02 never advances node00's PRNG, which is what keeps
			// fault decisions identical at every shard count. The
			// cluster-level sites (cluster.node.*) stay on the parent
			// injector, checked only at the single-threaded coordinator.
			Faults:   opts.Faults.Derive(id),
			Fallback: opts.Fallback,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, &Node{
			id:       id,
			index:    i,
			spec:     spec,
			platform: p,
			health:   Up,
			// Prebind the per-trigger instruments so the hot path skips
			// the registry lookup (nil registry ⇒ inert nil handles).
			triggers: opts.Metrics.Counter("cluster_triggers_total", "node", id, "policy", policy),
			load:     opts.Metrics.Gauge("cluster_node_load", "node", id),
		})
	}
	if len(opts.Tenants) > 0 {
		slots := 0
		for _, n := range c.nodes {
			slots += n.spec.ULLSlots
		}
		ctrl, err := tenant.New(opts.Tenants, tenant.Options{
			Slots:   slots,
			ULLRate: opts.ULLAdmitRate,
			Metrics: opts.Metrics,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: tenants: %w", err)
		}
		c.tenants = ctrl
	}
	router, err := newRouter(policy, c)
	if err != nil {
		return nil, err
	}
	c.router = router
	return c, nil
}

// Clock returns the cluster's global virtual clock.
func (c *Cluster) Clock() *simtime.Clock { return c.clock }

// Nodes returns the cluster's nodes in index order. The slice is the
// cluster's own; callers must not mutate it.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Router returns the cluster's router.
func (c *Cluster) Router() *Router { return c.router }

// Trace returns the armed trigger-trace recorder (nil when tracing is
// off).
func (c *Cluster) Trace() *trigtrace.Recorder { return c.rec }

// SetTrace arms (or, with nil, disarms) the trigger-trace recorder:
// each trigger then records an end-to-end span tree (DESIGN.md §12).
// Run arms one automatically when none is set; a direct Trigger caller
// without one pays only the inert-context early-returns
// (BenchmarkContextDisabled).
//
//horselint:coordinator
func (c *Cluster) SetTrace(rec *trigtrace.Recorder) { c.rec = rec }

// SetSLOBudget sets the latency budget a registered function's traces
// are judged against (0 removes it; an unregistered name is ignored).
// Run seeds these from its per-function budgets; direct Trigger
// callers may set them explicitly.
//
//horselint:coordinator
func (c *Cluster) SetSLOBudget(name string, budget simtime.Duration) {
	if entry, ok := c.deployments[name]; ok {
		entry.slo = budget
	}
}

// node looks a node up by id.
func (c *Cluster) node(id string) (*Node, error) {
	for _, n := range c.nodes {
		if n.id == id {
			return n, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownNode, id)
}

// RegisterEverywhere deploys fn on every node so any placement decision
// can serve it. Whether the function is uLL (and therefore eligible for
// HORSE pools and ull-affinity pinning) comes from its workload
// category.
func (c *Cluster) RegisterEverywhere(fn workload.Function, spec faas.SandboxSpec) error {
	if fn == nil {
		return errors.New("cluster: nil function")
	}
	if _, ok := c.deployments[fn.Name()]; ok {
		return fmt.Errorf("%w: %q", faas.ErrAlreadyDeployed, fn.Name())
	}
	deps := make([]*faas.Deployment, len(c.nodes))
	for i, n := range c.nodes {
		d, err := n.platform.Register(fn, spec)
		if err != nil {
			return fmt.Errorf("cluster: register %q on %s: %w", fn.Name(), n.id, err)
		}
		deps[i] = d
	}
	entry := &deploymentEntry{name: fn.Name(), index: len(c.entries), deps: deps, spec: spec, ull: fn.Category().ULL(), tenant: -1}
	c.deployments[entry.name] = entry
	c.entries = append(c.entries, entry)
	return nil
}

// DeploymentNames returns the registered function names in sorted order.
func (c *Cluster) DeploymentNames() []string { return sortedKeys(c.deployments) }

// sortedKeys returns m's keys in ascending order, so a walk over a map
// is deterministic.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// scaleTargets assigns total warm-pool entries for one deployment and
// policy across the eligible nodes, round-robin one slot at a time so a
// heterogeneous cluster fills evenly. HORSE pools are confined to
// uLL-reserved nodes and capped at each node's ULLSlots minus the
// reserved slots other functions' HORSE pools already occupy (the
// slots are one physical resource, not a per-function allowance);
// every placement is admitted against the node's live sandbox-memory
// commitment. Returns the eligible nodes and their targets.
func (c *Cluster) scaleTargets(name string, total int, policy core.Policy) ([]*Node, []int) {
	entry := c.deployments[name]
	var nodes []*Node
	var caps []int
	for _, n := range c.nodes {
		if n.health != Up {
			continue
		}
		if policy == core.Horse && !n.ULLReserved() {
			continue
		}
		// Entries this rescale replaces come back as free memory.
		freeMB := n.spec.MemoryMB - n.committedMB(c) + n.poolCount(name, policy)*entry.spec.MemoryMB
		cap := freeMB / entry.spec.MemoryMB
		if cap < 0 {
			cap = 0
		}
		if policy == core.Horse {
			if slots := n.spec.ULLSlots - n.horseOccupied(c, name); cap > slots {
				cap = slots
			}
			if cap < 0 {
				cap = 0
			}
		}
		nodes = append(nodes, n)
		caps = append(caps, cap)
	}
	targets := make([]int, len(nodes))
	remaining := total
	for remaining > 0 {
		progressed := false
		for i := range nodes {
			if remaining == 0 {
				break
			}
			if targets[i] < caps[i] {
				targets[i]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return nodes, targets
}

// ScaleCluster sets the cluster-wide warm-pool size for one deployment
// and resume policy, distributing the entries across the eligible nodes
// (see scaleTargets). It returns how many entries are now placed; when
// capacity caps the placement below total, the remainder is simply not
// placed — triggers beyond the warm capacity degrade through the
// fallback chain instead of failing. A tenant-bound deployment's
// request is first clamped by the tenant contract (clampTenantScale):
// HORSE slots by the weighted-fair entitlement with borrow-and-reclaim,
// every pool by the tenant's memory quota.
func (c *Cluster) ScaleCluster(name string, total int, policy core.Policy) (int, error) {
	entry, ok := c.deployments[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", faas.ErrUnknownFunction, name)
	}
	if total < 0 {
		return 0, fmt.Errorf("cluster: negative pool target %d", total)
	}
	if c.tenants != nil && entry.tenant >= 0 {
		total = c.clampTenantScale(entry.tenant, name, total, policy)
	}
	placed, err := c.applyScale(name, total, policy)
	c.publishTenantOccupancy()
	return placed, err
}

// applyScale places one deployment's pool target across the eligible
// nodes with no tenancy clamp — the shared lower half of ScaleCluster,
// also used by the reclaim path to shrink a victim's own holdings.
func (c *Cluster) applyScale(name string, total int, policy core.Policy) (int, error) {
	nodes, targets := c.scaleTargets(name, total, policy)
	placed := 0
	for i, n := range nodes {
		if err := n.platform.ScaleTo(name, targets[i], policy); err != nil {
			return placed, fmt.Errorf("cluster: scale %q to %d on %s: %w", name, targets[i], n.id, err)
		}
		placed += targets[i]
	}
	return placed, nil
}

// poolTotal sums the healthy nodes' warm-pool entries for one
// deployment and policy.
func (c *Cluster) poolTotal(name string, policy core.Policy) int {
	total := 0
	for _, n := range c.nodes {
		if n.health != Up {
			continue
		}
		total += n.poolCount(name, policy)
	}
	return total
}

// Drain gracefully removes a node: it stops receiving new triggers
// immediately, and its warm capacity is re-homed onto the surviving
// nodes deployment by deployment. A re-homing error degrades capacity
// but never cancels the drain — the node is going away regardless.
//
//horselint:coordinator
func (c *Cluster) Drain(id string) error {
	n, err := c.node(id)
	if err != nil {
		return err
	}
	if n.health != Up {
		return fmt.Errorf("%w: %s is %s", ErrNodeNotUp, id, n.health)
	}
	n.health = Draining
	var firstErr error
	for _, name := range c.DeploymentNames() {
		for _, policy := range []core.Policy{core.Vanilla, core.Horse} {
			departing := n.poolCount(name, policy)
			if departing == 0 {
				continue
			}
			survivors := c.poolTotal(name, policy)
			if err := n.platform.ScaleTo(name, 0, policy); err != nil {
				// The pool shrink failed partway; the node keeps the
				// undestroyed sandboxes, which no trigger will ever reach.
				if firstErr == nil {
					firstErr = fmt.Errorf("cluster: drain %s: release %q: %w", id, name, err)
				}
				continue
			}
			if _, err := c.ScaleCluster(name, survivors+departing, policy); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("cluster: drain %s: re-home %q: %w", id, name, err)
				}
			}
		}
	}
	c.publishTenantOccupancy()
	return firstErr
}

// Fail hard-kills a node: health goes to Failed and its pools are lost
// with it — no re-homing, the capacity must be rebuilt by ScaleCluster
// on the survivors.
//
//horselint:coordinator
func (c *Cluster) Fail(id string) error {
	n, err := c.node(id)
	if err != nil {
		return err
	}
	if n.health == Failed {
		return fmt.Errorf("%w: %s is already failed", ErrNodeNotUp, id)
	}
	n.health = Failed
	// The node's pools died with it; the tenants' occupancy gauges must
	// not keep counting them.
	c.publishTenantOccupancy()
	return nil
}

// resetRunState clears every piece of per-run accumulator state so
// back-to-back Runs on one cluster report exactly what a fresh cluster
// would. Before this reset existed, a second Run inherited the first
// run's failover tallies, node placement counters, the
// round-robin cursor, stale SLO budgets, and — worst — the lazily
// armed trace recorder's aggregates and retained flight traces, so its
// report double-counted the previous experiment (Run's Claim on the
// recorder now clears those). Cumulative state that
// is cumulative by design survives: the telemetry registry's
// instruments, the fault injector's visit counters, and the node-local
// clocks (Run settles those into a well-defined start instant).
//
//horselint:coordinator
func (c *Cluster) resetRunState() {
	c.seq = 0
	c.failovers = make(map[string]uint64)
	for _, entry := range c.entries {
		entry.slo = 0
	}
	c.router.policy.reset()
	// The admission controller's buckets, deficits, and tallies are
	// per-run state; occupancy is republished from the live pools so a
	// run starts with gauges that match what is actually placed.
	c.tenants.ResetCounters()
	c.publishTenantOccupancy()
	for _, n := range c.nodes {
		n.placements = 0
		n.served = 0
	}
}

// countFailover records one voided routing decision.
//
//horselint:coordinator
func (c *Cluster) countFailover(reason string) {
	c.failovers[reason]++
	c.metrics.Counter("cluster_failovers_total", "reason", reason).Inc()
}

// Placement describes where and how one trigger was served.
type Placement struct {
	// Node and NodeIndex identify the serving node (empty/-1 when the
	// trigger was rejected).
	Node      string
	NodeIndex int
	// Failovers counts the voided routing decisions before this one.
	Failovers int
	// Wait is the virtual time the trigger queued behind the node's
	// backlog before its sandbox work began.
	Wait simtime.Duration
	// Latency is arrival-to-completion: Wait plus the invocation's
	// init and exec.
	Latency simtime.Duration
}

// Trigger routes one invocation through the placement policy and serves
// it, failing over across nodes when the picked node dies, drains, or
// exhausts its local fallback chain. The returned Placement reports
// where it landed and what it cost end to end. It is a one-arrival
// epoch of Run: the same admission gate, routing and fault sites,
// node-local serve, and failure classification, with the picked node's
// queue drained in place of the shard barrier.
//
//horselint:coordinator
func (c *Cluster) Trigger(name string, mode faas.StartMode, payload []byte) (faas.Invocation, Placement, error) {
	entry, ok := c.deployments[name]
	if !ok {
		return faas.Invocation{}, Placement{NodeIndex: -1}, fmt.Errorf("%w: %q", faas.ErrUnknownFunction, name)
	}
	job := c.newJob(entry, mode, payload, c.clock.Now())
	c.serveAlone(job)
	c.complete(job)
	defer c.releaseJob(job)
	p := Placement{NodeIndex: -1, Failovers: job.failovers}
	if job.node != nil {
		p.Node, p.NodeIndex, p.Wait = job.node.id, job.node.index, job.wait
	}
	if job.err != nil {
		return faas.Invocation{}, p, job.err
	}
	p.Latency = job.latency
	// The output aliases the serving node's response buffer, which its
	// next trigger overwrites; the caller gets its own exact-size copy.
	inv := job.inv
	if inv.Output != nil {
		inv.Output = append(make([]byte, 0, len(inv.Output)), inv.Output...)
	}
	return inv, p, nil
}

// Settle advances the cluster clock to the latest node-local instant,
// marking the end of setup: provisioning and registration charge the
// node-local clocks, and without a settle that work would read as
// backlog (queueing delay) to the first triggers of an experiment.
// Returns the settled instant.
func (c *Cluster) Settle() simtime.Time {
	latest := c.clock.Now()
	for _, n := range c.nodes {
		if local := n.platform.Clock().Now(); local.After(latest) {
			latest = local
		}
	}
	c.clock.AdvanceTo(latest)
	return latest
}
