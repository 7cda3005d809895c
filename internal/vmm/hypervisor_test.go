package vmm

import (
	"errors"
	"testing"

	"github.com/horse-faas/horse/internal/runqueue"
	"github.com/horse-faas/horse/internal/simtime"
)

func newHypervisor(t *testing.T) *Hypervisor {
	t.Helper()
	h, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewDefaults(t *testing.T) {
	h := newHypervisor(t)
	if got := len(h.Queues()); got != 36 {
		t.Fatalf("general queues = %d, want 36", got)
	}
	if got := len(h.ULLQueues()); got != 1 {
		t.Fatalf("ull queues = %d, want 1", got)
	}
	if h.ULLQueues()[0].Timeslice() != runqueue.ULLTimeslice {
		t.Fatal("ull queue not reserved")
	}
	if h.Costs() != DefaultCostModel() {
		t.Fatal("default cost model not applied")
	}
}

func TestNewRejectsNegative(t *testing.T) {
	if _, err := New(Options{ULLQueues: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

func TestCreateSandboxPlacesVCPUs(t *testing.T) {
	h := newHypervisor(t)
	sb, err := h.CreateSandbox(Config{VCPUs: 4, MemoryMB: 512})
	if err != nil {
		t.Fatal(err)
	}
	if sb.State() != StateRunning {
		t.Fatalf("state = %v, want running", sb.State())
	}
	if sb.NumVCPUs() != 4 || len(sb.Placements()) != 4 {
		t.Fatalf("vcpus=%d placements=%d, want 4/4", sb.NumVCPUs(), len(sb.Placements()))
	}
	total := 0
	for _, q := range h.Queues() {
		total += q.Len()
	}
	if total != 4 {
		t.Fatalf("entities on queues = %d, want 4", total)
	}
	if h.Sandboxes() != 1 {
		t.Fatalf("Sandboxes = %d, want 1", h.Sandboxes())
	}
	if h.sandboxes[sb.ID()] != sb {
		t.Fatal("sandbox not registered under its id")
	}
}

func TestCreateSandboxValidation(t *testing.T) {
	h := newHypervisor(t)
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "zero-vcpus", cfg: Config{VCPUs: 0, MemoryMB: 512}},
		{name: "too-many-vcpus", cfg: Config{VCPUs: MaxVCPUs + 1, MemoryMB: 512}},
		{name: "no-memory", cfg: Config{VCPUs: 1, MemoryMB: 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := h.CreateSandbox(tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestPauseResumeRoundTrip(t *testing.T) {
	h := newHypervisor(t)
	sb, err := h.CreateSandbox(Config{VCPUs: 2, MemoryMB: 512})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := h.AppendPause(nil, sb)
	if err != nil {
		t.Fatal(err)
	}
	if sb.State() != StatePaused {
		t.Fatalf("state = %v, want paused", sb.State())
	}
	if len(sb.Placements()) != 0 {
		t.Fatal("paused sandbox still has placements")
	}
	if pr.VCPUs != 2 || pr.Total == 0 {
		t.Fatalf("pause report = %+v", pr)
	}

	rr, err := h.AppendResume(nil, sb)
	if err != nil {
		t.Fatal(err)
	}
	if sb.State() != StateRunning {
		t.Fatalf("state = %v, want running", sb.State())
	}
	if rr.VCPUs != 2 || rr.Policy != PolicyVanilla {
		t.Fatalf("resume report = %+v", rr)
	}
	acct := h.Accounting()
	if acct.Pauses != 1 || acct.Resumes != 1 {
		t.Fatalf("accounting = %+v", acct)
	}
}

func TestVanillaResumeCostMatchesCalibration(t *testing.T) {
	costs := DefaultCostModel()
	fixed := costs.Parse + costs.Lock + costs.Sanity + costs.Finalize
	tests := []struct {
		name  string
		vcpus int
	}{
		{name: "1vcpu", vcpus: 1},
		{name: "8vcpu", vcpus: 8},
		{name: "36vcpu", vcpus: 36},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := newHypervisor(t)
			sb, err := h.CreateSandbox(Config{VCPUs: tt.vcpus, MemoryMB: 512})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.AppendPause(nil, sb); err != nil {
				t.Fatal(err)
			}
			rr, err := h.AppendResume(nil, sb)
			if err != nil {
				t.Fatal(err)
			}
			n := simtime.Duration(tt.vcpus)
			want := fixed + costs.MergeCold + (n-1)*costs.MergeWarm + n*costs.LoadUpdate
			if rr.Total != want {
				t.Fatalf("resume total = %v, want %v", rr.Total, want)
			}
		})
	}
}

func TestVanillaTwoOpsShareGrowsWithVCPUs(t *testing.T) {
	share := func(vcpus int) float64 {
		h := newHypervisor(t)
		sb, err := h.CreateSandbox(Config{VCPUs: vcpus, MemoryMB: 512})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.AppendPause(nil, sb); err != nil {
			t.Fatal(err)
		}
		rr, err := h.AppendResume(nil, sb)
		if err != nil {
			t.Fatal(err)
		}
		return rr.TwoOpsShare()
	}
	s1, s36 := share(1), share(36)
	if s36 <= s1 {
		t.Fatalf("two-ops share did not grow: %v (1 vCPU) vs %v (36)", s1, s36)
	}
	// Paper Figure 2: the two operations account for 87.5%-93.1% of the
	// resume; the calibrated model reaches >90% at 36 vCPUs.
	if s36 < 0.875 || s36 > 0.95 {
		t.Fatalf("share(36) = %v, want within Figure 2's band", s36)
	}
}

func TestResumeRequiresPaused(t *testing.T) {
	h := newHypervisor(t)
	sb, err := h.CreateSandbox(Config{VCPUs: 1, MemoryMB: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AppendResume(nil, sb); !errors.Is(err, ErrNotPaused) {
		t.Fatalf("err = %v, want ErrNotPaused", err)
	}
}

func TestPauseRequiresRunning(t *testing.T) {
	h := newHypervisor(t)
	sb, err := h.CreateSandbox(Config{VCPUs: 1, MemoryMB: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AppendPause(nil, sb); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AppendPause(nil, sb); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("double pause err = %v, want ErrNotRunning", err)
	}
}

func TestResumeLockExcludesParallelResume(t *testing.T) {
	h := newHypervisor(t)
	sb1, _ := h.CreateSandbox(Config{VCPUs: 1, MemoryMB: 512})
	sb2, _ := h.CreateSandbox(Config{VCPUs: 1, MemoryMB: 512})
	if _, err := h.AppendPause(nil, sb1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AppendPause(nil, sb2); err != nil {
		t.Fatal(err)
	}
	ctx, err := h.BeginResume(sb1, PolicyVanilla, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.BeginResume(sb2, PolicyVanilla, false); !errors.Is(err, ErrResumeBusy) {
		t.Fatalf("err = %v, want ErrResumeBusy", err)
	}
	ctx.Abort()
	if _, err := h.AppendResume(nil, sb2); err != nil {
		t.Fatalf("resume after lock release failed: %v", err)
	}
	if h.Accounting().LockWaits != 1 {
		t.Fatalf("LockWaits = %d, want 1", h.Accounting().LockWaits)
	}
	// sb1 was aborted, not resumed.
	if sb1.State() != StatePaused {
		t.Fatalf("aborted sandbox state = %v, want paused", sb1.State())
	}
}

func TestResumeFinishRequiresAllPlacements(t *testing.T) {
	h := newHypervisor(t)
	sb, _ := h.CreateSandbox(Config{VCPUs: 2, MemoryMB: 512})
	if _, err := h.AppendPause(nil, sb); err != nil {
		t.Fatal(err)
	}
	ctx, err := h.BeginResume(sb, "broken", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Finish(nil); err == nil {
		t.Fatal("Finish accepted a resume that placed no vCPUs")
	}
	// The failed Finish must release the lock.
	if _, err := h.AppendResume(nil, sb); err != nil {
		t.Fatalf("lock not released after failed Finish: %v", err)
	}
}

func TestDestroySandbox(t *testing.T) {
	h := newHypervisor(t)
	sb, _ := h.CreateSandbox(Config{VCPUs: 3, MemoryMB: 512})
	if err := h.DestroySandbox(sb); err != nil {
		t.Fatal(err)
	}
	if sb.State() != StateStopped {
		t.Fatalf("state = %v, want stopped", sb.State())
	}
	if h.Sandboxes() != 0 {
		t.Fatal("sandbox not deregistered")
	}
	total := 0
	for _, q := range h.Queues() {
		total += q.Len()
	}
	if total != 0 {
		t.Fatalf("entities left on queues: %d", total)
	}
	if err := h.DestroySandbox(sb); !errors.Is(err, ErrUnknownSandbox) {
		t.Fatalf("double destroy err = %v, want ErrUnknownSandbox", err)
	}
	if _, err := h.AppendPause(nil, sb); !errors.Is(err, ErrStopped) {
		t.Fatalf("pause stopped err = %v, want ErrStopped", err)
	}
}

func TestLeastLoadedQueueSpreadsPlacements(t *testing.T) {
	h := newHypervisor(t)
	if _, err := h.CreateSandbox(Config{VCPUs: 2 * generalCPUs, MemoryMB: 512}); err != nil {
		t.Fatal(err)
	}
	for i, q := range h.Queues() {
		if q.Len() != 2 {
			t.Fatalf("queue %d has %d entities, want even spread of 2", i, q.Len())
		}
	}
}

func TestSandboxStateString(t *testing.T) {
	tests := []struct {
		give SandboxState
		want string
	}{
		{give: StateRunning, want: "running"},
		{give: StatePaused, want: "paused"},
		{give: StateStopped, want: "stopped"},
		{give: SandboxState(9), want: "state(9)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}
