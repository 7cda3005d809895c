package cluster

import (
	"errors"
	"strings"
	"testing"

	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/faultinject"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/tenant"
	"github.com/horse-faas/horse/internal/workload"
)

// outcomeCluster builds nodes plain nodes (no pools, no fallback) with
// one tenant, acme, owning the uLL scan and the non-uLL thumbnail, and
// the given fault spec.
func outcomeCluster(t *testing.T, nodes int, acme tenant.Spec, ullRate float64, faults string) *Cluster {
	t.Helper()
	inj, err := faultinject.FromSpec(1, faults)
	if err != nil {
		t.Fatal(err)
	}
	acme.Name = "acme"
	c, err := New(Options{
		Specs:        make([]NodeSpec, nodes),
		Seed:         1,
		Faults:       inj,
		Tenants:      []tenant.Spec{acme},
		ULLAdmitRate: ullRate,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := faas.SandboxSpec{VCPUs: 1, MemoryMB: 128}
	for _, fn := range []workload.Function{workload.NewScan(1), workload.NewThumbnail()} {
		if err := c.RegisterEverywhere(fn, spec); err != nil {
			t.Fatal(err)
		}
		if err := c.BindTenant(fn.Name(), "acme"); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// admissionReject mints arrivals of name until the admission gate
// refuses one, and returns that job.
func admissionReject(t *testing.T, c *Cluster, name string) *pendingJob {
	t.Helper()
	for i := 0; i < 100; i++ {
		job := c.newJob(c.deployments[name], faas.ModeHorse, nil, c.clock.Now())
		if job.err != nil {
			return job
		}
		c.releaseJob(job)
	}
	t.Fatalf("100 arrivals of %s were all admitted", name)
	return nil
}

// runJob drives one arrival of name through routing, serving and
// settling, and returns the terminal job.
func runJob(c *Cluster, name string, mode faas.StartMode) *pendingJob {
	job := c.newJob(c.deployments[name], mode, nil, c.clock.Now())
	c.serveAlone(job)
	return job
}

// stalePick is a placement policy that picks one fixed node whatever
// its health: the way to reach routeJob's Fail error, which no real
// policy can (they pick only Up nodes).
type stalePick struct{ n *Node }

func (stalePick) name() string { return "stale" }
func (stalePick) reset()       {}
func (p stalePick) pick(*Cluster, string, bool, map[int]bool, simtime.Time) (*Node, error) {
	return p.n, nil
}

// chainColumn is the classification the report made before jobs
// carried an outcome: an error-chain walk per arrival.
func chainColumn(err error) string {
	if errors.Is(err, ErrNoNodes) || errors.Is(err, ErrAdmissionRejected) {
		if errors.Is(err, ErrAdmissionRejected) {
			return RejectReasonAdmission
		}
		return RejectReasonNoNodes
	}
	return "failed"
}

// one counts a condition: 1 if it holds, else 0.
func one(cond bool) uint64 {
	if cond {
		return 1
	}
	return 0
}

// TestOutcomeMatchesErrorChain covers every error the run loop can end
// a job with. Each job is classified where its error is set; the
// classification must equal the old error-chain verdict, and the
// report must count the job in the same tenant column as before.
func TestOutcomeMatchesErrorChain(t *testing.T) {
	for _, tc := range []struct {
		name string
		// job drives the error's own code path and returns the terminal
		// job, not yet recorded.
		job      func(t *testing.T) (*Cluster, *pendingJob)
		sentinel error
		text     string // a fragment the error must carry
		ull      bool
	}{
		{
			name: "admission/rate-ull",
			job: func(t *testing.T) (*Cluster, *pendingJob) {
				c := outcomeCluster(t, 1, tenant.Spec{Weight: 1, Rate: 1, Burst: 1}, 0, "")
				return c, admissionReject(t, c, "scan")
			},
			sentinel: ErrAdmissionRejected, text: "rate budget", ull: true,
		},
		{
			name: "admission/rate-not-ull",
			job: func(t *testing.T) (*Cluster, *pendingJob) {
				c := outcomeCluster(t, 1, tenant.Spec{Weight: 1, Rate: 1, Burst: 1}, 0, "")
				return c, admissionReject(t, c, "thumbnail")
			},
			sentinel: ErrAdmissionRejected, text: "rate budget",
		},
		{
			name: "admission/ull-share",
			job: func(t *testing.T) (*Cluster, *pendingJob) {
				c := outcomeCluster(t, 1, tenant.Spec{Weight: 1}, 1, "")
				return c, admissionReject(t, c, "scan")
			},
			sentinel: ErrAdmissionRejected, text: "ull-share budget", ull: true,
		},
		{
			name: "no-nodes",
			job: func(t *testing.T) (*Cluster, *pendingJob) {
				c := outcomeCluster(t, 2, tenant.Spec{Weight: 1}, 0, "")
				for _, n := range c.nodes {
					if err := c.Fail(n.id); err != nil {
						t.Fatal(err)
					}
				}
				return c, runJob(c, "scan", faas.ModeCold)
			},
			sentinel: ErrNoNodes, ull: true,
		},
		{
			name: "no-nodes/last-node-error",
			job: func(t *testing.T) (*Cluster, *pendingJob) {
				// The one node has no warm pool and no fallback: the
				// HORSE attempt misses, the node is excluded, and the
				// re-route finds nothing.
				c := outcomeCluster(t, 1, tenant.Spec{Weight: 1}, 0, "")
				return c, runJob(c, "scan", faas.ModeHorse)
			},
			sentinel: ErrNoNodes, text: "(last node error: faas: no warm sandbox available", ull: true,
		},
		{
			name: "invoke-not-retried",
			job: func(t *testing.T) (*Cluster, *pendingJob) {
				c := outcomeCluster(t, 2, tenant.Spec{Weight: 1}, 0, "invoke:nth=1")
				return c, runJob(c, "thumbnail", faas.ModeCold)
			},
			sentinel: ErrInvokeNotRetried,
		},
		{
			name: "fail-error",
			job: func(t *testing.T) (*Cluster, *pendingJob) {
				c := outcomeCluster(t, 2, tenant.Spec{Weight: 1}, 0, "cluster.node.fail:nth=1")
				if err := c.Fail("node00"); err != nil {
					t.Fatal(err)
				}
				c.router.policy = stalePick{c.nodes[0]}
				return c, runJob(c, "scan", faas.ModeCold)
			},
			sentinel: ErrNodeNotUp, ull: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, job := tc.job(t)
			if !errors.Is(job.err, tc.sentinel) || !strings.Contains(job.err.Error(), tc.text) {
				t.Fatalf("job ended with %v, want %v carrying %q", job.err, tc.sentinel, tc.text)
			}
			want := chainColumn(job.err)
			got := map[outcome]string{
				outServed:    "served",
				outAdmission: RejectReasonAdmission,
				outNoNodes:   RejectReasonNoNodes,
				outFailed:    "failed",
			}[job.outcome]
			if got != want {
				t.Fatalf("outcome %q, error chain says %q (err %v)", got, want, job.err)
			}

			b := newReportBuilder(c, simtime.Millisecond)
			b.record(job)
			r := b.build()
			ts := tenantSummary(t, r, "acme")
			columns := map[string]uint64{
				RejectReasonAdmission: ts.AdmissionRejected,
				RejectReasonNoNodes:   ts.Rejected,
				"failed":              ts.Failed,
			}
			for column, count := range columns {
				if count != one(column == want) {
					t.Errorf("tenant column %s = %d, want %d", column, count, one(column == want))
				}
			}
			if ts.Arrivals != 1 || ts.Served != 0 || ts.Missed != 1 {
				t.Errorf("tenant arrivals/served/missed = %d/%d/%d, want 1/0/1", ts.Arrivals, ts.Served, ts.Missed)
			}
			// A missed uLL arrival zeroes the uLL attainment; with no uLL
			// arrival it is vacuously 1.
			if wantULL := float64(one(!tc.ull)); ts.ULLAttainment != wantULL {
				t.Errorf("tenant uLL attainment = %v, want %v", ts.ULLAttainment, wantULL)
			}
			rejected := want != "failed"
			if r.Rejected != one(rejected) || r.Failed != one(!rejected) {
				t.Errorf("report rejected/failed = %d/%d for a %s job", r.Rejected, r.Failed, want)
			}
			if rejected && (len(r.RejectionReasons) != 1 || r.RejectionReasons[0] != ReasonCount{Reason: want, Count: 1}) {
				t.Errorf("rejection reasons %+v, want one %s", r.RejectionReasons, want)
			}
		})
	}
}
