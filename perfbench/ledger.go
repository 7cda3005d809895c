package main

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/horse-faas/horse/internal/cluster"
	"github.com/horse-faas/horse/internal/core"
	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/psm"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/tenant"
	"github.com/horse-faas/horse/internal/trigtrace"
	"github.com/horse-faas/horse/internal/vmm"
	"github.com/horse-faas/horse/internal/workload"
)

// The ledger prices each layer of one HORSE scan trigger on the
// scan-flood topology in isolation, in host ns per call, beside the
// whole routed trigger (cluster.Trigger, the BenchmarkClusterTrigger
// analogue). The parts marked inSum are the layers one trigger passes
// through; residual_frac is the share of the whole they leave
// unexplained (pool take, clock sync, telemetry, the fallback
// bookkeeping). psm_merge is inside core_horse_cycle and the vanilla
// cycle is the warm path, so neither is summed.
type ledgerItem struct {
	name  string
	inSum bool
	// batch runs the operation n times and returns the host time the n
	// calls took, excluding any per-call re-arming.
	batch func(n int) (time.Duration, error)
}

// Ledger timing: ledgerReps rounds of one batch per item, each batch
// sized to take about ledgerBatch.
const (
	ledgerReps  = 9
	ledgerBatch = 25 * time.Millisecond
)

func ledgerItems() ([]ledgerItem, error) {
	c, err := ledgerCluster()
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(workload.ScanRequest{Threshold: 5000})
	if err != nil {
		return nil, err
	}
	scan := workload.NewScan(42)

	now := c.Clock().Now()
	router := c.Router()

	specs, err := tenant.ParseSpecs(tenantStorm.tenants)
	if err != nil {
		return nil, err
	}
	admitter, err := tenant.New(specs, tenant.Options{Slots: 4, ULLRate: tenantStorm.ullAdmitRate})
	if err != nil {
		return nil, err
	}
	admitAt := simtime.Time(0)

	rec := trigtrace.NewRecorder(trigtrace.RecorderOptions{Seed: 1})
	var traceSeq uint64

	return []ledgerItem{
		{name: "router_pick", inSum: true, batch: timed(func() error {
			_, err := router.Pick(c, "scan", true, nil, now)
			return err
		})},
		{name: "tenant_admit", inSum: true, batch: timed(func() error {
			admitAt = admitAt.Add(33 * simtime.Microsecond)
			admitter.Admit(0, admitAt, true)
			return nil
		})},
		{name: "core_horse_cycle", inSum: true, batch: coreCycle(core.Horse)},
		{name: "core_vanilla_cycle", batch: coreCycle(core.Vanilla)},
		{name: "psm_merge", batch: psmMerge},
		{name: "trace_trigger", inSum: true, batch: timed(func() error {
			traceTrigger(rec, traceSeq)
			traceSeq++
			return nil
		})},
		{name: "scan_invoke", inSum: true, batch: timed(func() error {
			_, err := scan.Invoke(payload)
			return err
		})},
		{name: "cluster_trigger", batch: timed(func() error {
			_, _, err := c.Trigger("scan", faas.ModeHorse, payload)
			return err
		})},
	}, nil
}

// ledgerCluster is the scan-flood topology with a trace recorder armed,
// as Cluster.Run arms one.
func ledgerCluster() (*cluster.Cluster, error) {
	r, err := scanFlood.build(1, nil, nil)
	if err != nil {
		return nil, err
	}
	r.c.SetTrace(trigtrace.NewRecorder(trigtrace.RecorderOptions{Seed: 1}))
	return r.c, nil
}

// timed turns one call into a batch timed as a whole.
func timed(op func() error) func(n int) (time.Duration, error) {
	return func(n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
}

// coreCycle prices one pause plus resume of a 1-vCPU uLL sandbox.
func coreCycle(policy core.Policy) func(n int) (time.Duration, error) {
	h, err := vmm.New(vmm.Options{})
	if err != nil {
		return func(int) (time.Duration, error) { return 0, err }
	}
	engine := core.NewEngine(h)
	sb, err := h.CreateSandbox(vmm.Config{VCPUs: 1, MemoryMB: 128, ULL: true})
	if err != nil {
		return func(int) (time.Duration, error) { return 0, err }
	}
	return timed(func() error {
		if _, err := engine.Pause(sb, policy); err != nil {
			return err
		}
		_, err := engine.Resume(sb, policy)
		return err
	})
}

// psmMerge prices the P²SM splice of one vCPU into a 64-entry target;
// re-arming the precomputed state between merges is not timed.
func psmMerge(n int) (time.Duration, error) {
	target := psm.NewList[int]()
	for j := 63; j >= 0; j-- {
		target.Insert(int64(j*100), j)
	}
	pre := psm.NewPrecomputed(target)
	var total time.Duration
	for i := 0; i < n; i++ {
		pre.Rebuild()
		e := pre.AddSource(int64(i%64)*100+50, -1)
		start := time.Now()
		_, err := pre.Merge()
		total += time.Since(start)
		if err != nil {
			return 0, err
		}
		target.Remove(e)
	}
	return total, nil
}

// traceTrigger records the span tree a served HORSE trigger records:
// start, the six serving and housekeeping stages, and completion.
func traceTrigger(rec *trigtrace.Recorder, seq uint64) {
	const (
		resume = 150 * simtime.Nanosecond
		exec   = workload.ScanDuration
		repool = 100 * simtime.Nanosecond
	)
	at := simtime.Time(0).Add(simtime.Duration(seq) * simtime.Microsecond)
	tc := rec.Start(seq, "scan", "horse", at, cluster.DefaultULLBudget)
	tc.SetNode("node00")
	tc.RecordOn(trigtrace.StagePlacement, at, 0, "node00", "", cluster.PolicyRoundRobin)
	tc.RecordOn(trigtrace.StageQueueWait, at, 0, "node00", "", "")
	tc.RecordOn(trigtrace.StagePoolTake, at, 0, "", "horse", "horse")
	tc.RecordOn(trigtrace.StageResume, at, resume, "", "horse", "")
	tc.RecordOn(trigtrace.StageInvoke, at.Add(resume), exec, "", "horse", "")
	tc.RecordOn(trigtrace.StageRepool, at.Add(resume+exec), repool, "", "horse", "")
	tc.Complete(trigtrace.Outcome{Served: "horse", Node: "node00", Latency: resume + exec})
}

// batchSize returns how many calls of an item take about ledgerBatch.
func batchSize(it ledgerItem) (int, error) {
	for n := 1; ; n *= 2 {
		d, err := it.batch(n)
		if err != nil {
			return 0, fmt.Errorf("ledger %s: %w", it.name, err)
		}
		if d >= ledgerBatch/4 {
			return int(float64(n)*float64(ledgerBatch)/float64(d)) + 1, nil
		}
	}
}

// runLedger prices every item in ledgerReps rounds, one batch of each
// item per round, so a shift in host speed hits every price of a round
// alike. Each price is its median over rounds; the residual share is
// the median of the rounds' residuals.
func runLedger() (map[string]float64, error) {
	items, err := ledgerItems()
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(items))
	for i, it := range items {
		if sizes[i], err = batchSize(it); err != nil {
			return nil, err
		}
	}
	perCall := make([][]float64, len(items))
	residuals := make([]float64, 0, ledgerReps)
	for r := 0; r < ledgerReps; r++ {
		var parts, whole float64
		for i, it := range items {
			d, err := it.batch(sizes[i])
			if err != nil {
				return nil, fmt.Errorf("ledger %s: %w", it.name, err)
			}
			ns := float64(d.Nanoseconds()) / float64(sizes[i])
			perCall[i] = append(perCall[i], ns)
			switch {
			case it.inSum:
				parts += ns
			case it.name == "cluster_trigger":
				whole = ns
			}
		}
		residuals = append(residuals, (whole-parts)/whole)
	}
	out := make(map[string]float64, len(items)+1)
	for i, it := range items {
		out["ledger."+it.name+"_ns"] = median(perCall[i])
	}
	out["ledger.residual_frac"] = median(residuals)
	return out, nil
}
