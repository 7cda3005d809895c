package cluster

import (
	"errors"
	"fmt"

	"github.com/horse-faas/horse/internal/eventsim"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/loadgen"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/tenant"
	"github.com/horse-faas/horse/internal/trigtrace"
)

// Default virtual-time latency budgets for RunConfig.SLO entries that
// are unset. The uLL budget sits far above the HORSE fast path (≈850 ns
// for a Category-3 scan) and the warm path (≈1.9 µs) but far below a
// snapshot restore (1300 µs), so it measures "did the trigger stay on a
// hot path", which is the paper's definition of a uLL-capable platform.
const (
	DefaultULLBudget = 50 * simtime.Microsecond
	DefaultBudget    = 5 * simtime.Second
)

// DefaultSyncQuantum is the epoch length of the conservative-PDES run
// loop (DESIGN.md §13): the span of virtual time each pump/route/serve
// cycle covers. Smaller quanta tighten the router's view of node
// backlog (lags are read at most one quantum stale) at the cost of
// more barriers; 100 µs is ~2 000 epochs per 200 ms experiment while
// keeping the staleness well below the default uLL headroom.
const DefaultSyncQuantum = 100 * simtime.Microsecond

// RunConfig drives one open-loop cluster experiment.
type RunConfig struct {
	// Workloads is the arrival mix (see loadgen.ParseWorkloads). Every
	// named function must already be registered on the cluster.
	Workloads []loadgen.Workload
	// Horizon is the virtual span to generate arrivals over.
	Horizon simtime.Duration
	// Payloads maps function name to trigger payload (nil entries send
	// nil payloads).
	Payloads map[string][]byte
	// SLO overrides the per-function virtual-time latency budget
	// (default DefaultULLBudget for uLL functions, DefaultBudget
	// otherwise).
	SLO map[string]simtime.Duration
	// MaxEvents caps the arrivals the run pulls from its arrival stream
	// as a runaway guard (0 = no cap). The cap spans the whole run:
	// every epoch's pump draws from the same budget, and exceeding it
	// with arrivals still pending is an eventsim.ErrMaxEvents error.
	MaxEvents int
}

// pendingJob is one arrival moving through an epoch of the run loop:
// minted by newJob, routed by the coordinator, served on a node shard,
// settled and completed by the coordinator in arrival order, then
// zeroed onto the free list by releaseJob for a later arrival. Exactly
// one goroutine owns it at a time — the coordinator queues it on a
// node before a barrier and takes it back after — so its fields need
// no locks.
type pendingJob struct {
	seq     uint64
	fn      string
	ull     bool
	mode    faas.StartMode
	payload []byte
	arrival simtime.Time
	tc      trigtrace.Context

	// Failover state, coordinator-owned: only routeJob and settle touch
	// it, strictly between barriers.
	excluded  map[int]bool //horselint:coordinator
	failovers int          //horselint:coordinator
	lastErr   error        //horselint:coordinator

	// Per-attempt slots: node and policy are set at route time; the
	// serve handler fills the rest on the node's shard. These are the
	// sanctioned cross-phase hand-off — single-owner by the barrier
	// protocol, so they deliberately carry no ownership annotation.
	// policy is stamped here precisely so the serve handler does not
	// read it through the coordinator-owned router (shardsafe rejects
	// that access).
	//
	// inv.Output aliases the serving node's response buffer (Node.out)
	// and is overwritten when that node serves its next trigger. Run
	// never reads it; Cluster.Trigger copies it out before returning.
	node       *Node
	policy     string
	inv        faas.Invocation
	wait       simtime.Duration
	attemptErr error
	failedAt   simtime.Time

	// Terminal outcome, coordinator-owned. err is what the report
	// records; outErr is the trace outcome's error string (for
	// invocation failures the trace keeps the platform's own error,
	// while the report's err carries the ErrInvokeNotRetried wrap).
	err    error  //horselint:coordinator
	outErr string //horselint:coordinator

	latency simtime.Duration
}

// exclude rules a node out of this job's remaining routing decisions.
// Allocated lazily: the common trigger serves on its first pick.
//
//horselint:coordinator
func (j *pendingJob) exclude(idx, nodes int) {
	if j.excluded == nil {
		j.excluded = make(map[int]bool, nodes)
	}
	j.excluded[idx] = true
}

// Run pulls the configured arrival stream through the
// conservative-PDES epoch loop (DESIGN.md §13): virtual time advances
// in fixed sync quanta of DefaultSyncQuantum, each epoch pulling the
// stream's arrivals up to the epoch end on the coordinator, routing
// every arrival through the placement policy in arrival order, then
// draining the nodes' trigger queues in parallel — one shard per
// worker — behind a barrier. All cross-node state (router cursors and
// lag reads, fault checks at the cluster.node.* sites, failover
// bookkeeping, the report and trace accumulators) is touched only by
// the coordinator between barriers, so the run is deterministic by
// construction: same seed, same options ⇒ a byte-identical report at
// every shard count and GOMAXPROCS.
//
//horselint:coordinator
func (c *Cluster) Run(cfg RunConfig) (Report, error) {
	if cfg.Horizon <= 0 {
		return Report{}, errors.New("cluster: run horizon must be positive")
	}
	budgets := make(map[string]simtime.Duration, len(cfg.Workloads))
	for _, w := range cfg.Workloads {
		entry, ok := c.deployments[w.Function]
		if !ok {
			return Report{}, fmt.Errorf("cluster: workload function %q is not registered", w.Function)
		}
		// Tenant-tagged workloads bind their function to the tenant so
		// admission, quota, and report attribution all see it.
		if err := c.BindTenant(w.Function, w.Tenant); err != nil {
			return Report{}, err
		}
		budget, ok := cfg.SLO[w.Function]
		if !ok {
			if entry.ull {
				budget = DefaultULLBudget
			} else {
				budget = DefaultBudget
			}
		}
		if budget <= 0 {
			return Report{}, fmt.Errorf("cluster: non-positive SLO budget for %q", w.Function)
		}
		budgets[w.Function] = budget
	}
	// Arm per-trigger tracing so every run yields the tail-latency
	// attribution table; a caller-supplied recorder (SetTrace) is
	// kept, including its retention sizing. Claiming it clears its
	// aggregates, and fails while another cluster's run holds it.
	if c.rec == nil {
		c.rec = trigtrace.NewRecorder(trigtrace.RecorderOptions{Seed: c.seed, Metrics: c.metrics})
	}
	if err := c.rec.Claim(); err != nil {
		return Report{}, err
	}
	defer c.rec.Release()
	// Every run starts from a clean accumulator slate — counters,
	// failover tallies, SLO budgets and policy cursors — so
	// back-to-back runs on one cluster report exactly what a fresh
	// cluster would.
	c.resetRunState()
	for name, budget := range budgets {
		c.SetSLOBudget(name, budget)
	}
	gen, err := loadgen.New(c.seed, cfg.Workloads, loadgen.Options{Metrics: c.metrics})
	if err != nil {
		return Report{}, err
	}
	builder := newReportBuilder(c, cfg.Horizon, budgets)
	// Setup work (provisioning, registration) charged the node-local
	// clocks; settle so it does not read as backlog to the first
	// arrivals.
	start := c.Settle()
	horizonEnd := start.Add(cfg.Horizon)
	stream, err := gen.Stream(start, horizonEnd)
	if err != nil {
		return Report{}, err
	}
	group := eventsim.NewShardGroup(c.shards)
	defer group.Close()
	// The pump only mints: arrivals become jobs (and start their trace
	// contexts) in arrival order on the coordinator, then are routed
	// and served epoch by epoch.
	var epoch []*pendingJob
	pulled := 0
	for now := start; now.Before(horizonEnd); {
		next := now.Add(DefaultSyncQuantum)
		if next.After(horizonEnd) {
			next = horizonEnd
		}
		for a, ok := stream.Next(next); ok; a, ok = stream.Next(next) {
			if cfg.MaxEvents > 0 && pulled == cfg.MaxEvents {
				return Report{}, fmt.Errorf("%w: run pulled %d arrivals (cap %d) with more still pending",
					eventsim.ErrMaxEvents, pulled, cfg.MaxEvents)
			}
			pulled++
			epoch = append(epoch, c.newJob(a.Function, a.Mode, cfg.Payloads[a.Function], a.At))
		}
		c.clock.AdvanceTo(next)
		if len(epoch) > 0 {
			if err := c.serveEpoch(group, epoch, builder); err != nil {
				return Report{}, err
			}
			epoch = epoch[:0]
		}
		now = next
	}
	return builder.build(), nil
}

// newJob mints one arrival on the coordinator: it starts the trace
// context under the next arrival index, tags the tenant, and runs the
// tenant admission gate — in arrival order, identically at every shard
// count. A rejected job is terminal before routing: it consumes no
// placement and goes straight to complete. seq advances once per
// arrival whether or not a recorder is armed.
//
//horselint:coordinator
func (c *Cluster) newJob(fn string, mode faas.StartMode, payload []byte, at simtime.Time) *pendingJob {
	entry := c.deployments[fn]
	tc := c.rec.Start(c.seq, fn, mode.String(), at, c.sloBudgets[fn])
	tc.SetTenant(entry.tenantName)
	var job *pendingJob
	if k := len(c.freeJobs) - 1; k >= 0 {
		job = c.freeJobs[k]
		c.freeJobs = c.freeJobs[:k]
	} else {
		job = new(pendingJob)
	}
	*job = pendingJob{
		seq:     c.seq,
		fn:      fn,
		ull:     entry.ull,
		mode:    mode,
		payload: payload,
		arrival: at,
		tc:      tc,
	}
	c.seq++
	if v := c.tenants.Admit(entry.tenant, at, entry.ull); v != tenant.Admitted {
		job.err = entry.rejects[v]
		job.outErr = job.err.Error()
		c.rejected++
	}
	return job
}

// releaseJob zeroes a job that has been completed and recorded, dropping
// its trace context, error and output references, and returns it to the
// free list newJob pops from.
//
//horselint:coordinator
func (c *Cluster) releaseJob(job *pendingJob) {
	*job = pendingJob{}
	c.freeJobs = append(c.freeJobs, job)
}

// serveEpoch routes and serves one epoch's arrivals. Routing runs on
// the coordinator in arrival order; serving drains the node queues in
// parallel behind a ShardGroup barrier; triggers that fail
// retryably come back to the coordinator and re-route in the next
// wave. When every job is terminal the epoch is completed and recorded
// into the report in arrival order.
//
//horselint:coordinator
func (c *Cluster) serveEpoch(group *eventsim.ShardGroup, jobs []*pendingJob, builder *reportBuilder) error {
	shards := group.Shards()
	pending := jobs
	for len(pending) > 0 {
		scheduled := pending[:0:0]
		for _, job := range pending {
			// Jobs the admission gate already rejected at the pump are
			// terminal: they skip routing and go straight to finalize.
			if job.err != nil {
				continue
			}
			if c.routeJob(job) {
				scheduled = append(scheduled, job)
			}
		}
		if len(scheduled) == 0 {
			break
		}
		// The serve barrier: shard s drains the queues of the nodes it
		// owns (index mod shards). Node state — platform, local clock,
		// pools, per-node fault stream, the jobs' attempt slots — is
		// touched only by its owning shard until Each returns.
		if err := group.Each(func(shard int) error {
			for _, n := range c.nodes {
				if n.index%shards == shard {
					c.drain(n)
				}
			}
			return nil
		}); err != nil {
			return err
		}
		var retry []*pendingJob
		for _, job := range scheduled {
			if c.settle(job) {
				retry = append(retry, job)
			}
		}
		pending = retry
	}
	// Complete in arrival order so trace completion — and with it the
	// flight recorder's insertion-order retention — is identical at
	// every shard count.
	for _, job := range jobs {
		c.complete(job)
		if job.err != nil {
			// The error path records no served mode and no node: the
			// trigger was not served, so a zero-value placement must not
			// leak mode/node labels into the report's distributions.
			builder.record(job.fn, "", "", 0, job.err)
		} else {
			builder.record(job.fn, job.inv.Mode.String(), job.node.id, job.latency, nil)
		}
		c.releaseJob(job)
	}
	return nil
}

// settle classifies a served attempt on the coordinator and reports
// whether the job must re-route. A clean attempt or an invocation
// failure is terminal; any other on-node failure voids the placement
// and excludes the node from the job's next routing decision.
//
//horselint:coordinator
func (c *Cluster) settle(job *pendingJob) (retry bool) {
	terr := job.attemptErr
	if terr == nil {
		return false
	}
	n := job.node
	if errors.Is(terr, faas.ErrInvokeFailed) {
		// The function body ran and died; retrying on another node
		// would double-execute user code.
		c.failed++
		job.err = fmt.Errorf("%w: %v", ErrInvokeNotRetried, terr)
		job.outErr = terr.Error()
		return false
	}
	c.countFailover(ReasonTriggerFailed)
	job.tc.Reroute(job.failedAt, n.id, ReasonTriggerFailed)
	job.exclude(n.index, len(c.nodes))
	job.failovers++
	job.lastErr = terr
	return true
}

// complete finishes a terminal job's trace with its outcome.
//
//horselint:coordinator
func (c *Cluster) complete(job *pendingJob) {
	if job.err != nil {
		job.tc.Complete(trigtrace.Outcome{Err: job.outErr})
		return
	}
	job.tc.Complete(trigtrace.Outcome{Served: job.inv.Mode.String(), Node: job.node.id, Latency: job.latency})
}

// routeJob runs one job's routing decisions on the coordinator until
// the job is either queued on a node (true) or terminally rejected
// (false). The cluster.node.* fault sites fire
// here, against the shared parent injector, in arrival order — the
// same stream a sequential run draws. A rejected job has no node.
//
//horselint:coordinator
func (c *Cluster) routeJob(job *pendingJob) bool {
	job.node = nil
	for {
		n, err := c.router.Pick(c, job.fn, job.ull, job.excluded, job.arrival)
		if err != nil {
			c.rejected++
			if job.lastErr != nil {
				err = fmt.Errorf("%w (last node error: %v)", err, job.lastErr)
			}
			job.err = err
			job.outErr = err.Error()
			return false
		}
		// One fault check per routing decision: the node we were about to
		// use can fail hard or start draining under us.
		if ferr := c.faults.Check(faultinject.SiteNodeFail); ferr != nil {
			if err := c.Fail(n.id); err != nil {
				// Unreachable: the router only picks Up nodes.
				job.err = err
				job.outErr = err.Error()
				return false
			}
			c.countFailover(ReasonNodeFailed)
			job.tc.Reroute(job.arrival, n.id, ReasonNodeFailed)
			job.exclude(n.index, len(c.nodes))
			job.failovers++
			continue
		}
		if ferr := c.faults.Check(faultinject.SiteNodeDrain); ferr != nil {
			if err := c.Drain(n.id); err != nil {
				// A partial re-home degrades capacity but the node is
				// draining regardless; the failover below still applies.
				c.rehomeFailed++
			}
			c.countFailover(ReasonNodeDraining)
			job.tc.Reroute(job.arrival, n.id, ReasonNodeDraining)
			job.exclude(n.index, len(c.nodes))
			job.failovers++
			continue
		}
		n.queue = append(n.queue, job)
		job.node = n
		job.policy = c.router.Policy()
		job.attemptErr = nil
		return true
	}
}

// drain serves a node's queued jobs in routing order and empties the
// queue. Routing order is serve order: arrivals are routed in arrival
// order and a node's clock only moves forward, so each queued job's
// start instant — its arrival or the node clock, whichever is later —
// never decreases along the queue.
//
//horselint:shardphase
func (c *Cluster) drain(n *Node) {
	for _, job := range n.queue {
		c.serveJob(job)
	}
	// The backing array is reused. Its stale entries pin nothing: each
	// job is zeroed onto the free list once its epoch is recorded.
	n.queue = n.queue[:0]
}

// serveJob serves one routed job on its node's shard. It touches only
// the job (single-owner), the node, and the node's platform; the trace
// context is the job's own, so recording is race-free even though the
// recorder is shared.
//
//horselint:shardphase
func (c *Cluster) serveJob(job *pendingJob) {
	n := job.node
	local := n.platform.Clock()
	// An idle node starts at the arrival; a busy one at its clock, after
	// every earlier trigger it served. The gap to the arrival is
	// queueing behind the node's backlog.
	if local.Now().Before(job.arrival) {
		local.AdvanceTo(job.arrival)
	}
	start := local.Now()
	wait := start.Sub(job.arrival)
	job.wait = wait
	// The placement stood; the hop's stages are recorded from mark so a
	// hop that fails after all can be rolled up into one failed-attempt
	// span covering exactly the virtual time it cost.
	mark := job.tc.Mark()
	job.tc.SetNode(n.id)
	job.tc.RecordOn(trigtrace.StagePlacement, job.arrival, 0, n.id, "", job.policy)
	job.tc.RecordOn(trigtrace.StageQueueWait, job.arrival, wait, n.id, "", "")
	inv, terr := n.platform.TriggerTraced(job.tc, n.out[:0], job.fn, job.mode, job.payload)
	if terr != nil {
		consumed := local.Now().Sub(job.arrival)
		detail := ReasonTriggerFailed
		if errors.Is(terr, faas.ErrInvokeFailed) {
			detail = string(faultinject.SiteInvoke)
		}
		job.tc.CollapseFailed(mark, job.arrival, consumed, n.id, job.mode.String(), detail)
		job.attemptErr = terr
		job.failedAt = local.Now()
		return
	}
	job.inv = inv
	// An appending body returns n.out or its grown replacement; a body
	// with only Invoke returns a fresh buffer, kept only if it is larger.
	if cap(inv.Output) > cap(n.out) {
		n.out = inv.Output
	}
	n.served++
	// Caller-observed latency ends when the function's response is
	// ready; the re-pool pause after it is node housekeeping and shows
	// up only as backlog (Lag) for later triggers.
	job.latency = wait + inv.Total()
	n.triggers.Inc()
	n.load.Set(int64(n.Lag(job.arrival)))
}
