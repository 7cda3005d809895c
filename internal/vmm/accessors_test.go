package vmm

import "testing"

func TestSandboxAccessors(t *testing.T) {
	h := newHypervisor(t)
	sb, err := h.CreateSandbox(Config{VCPUs: 2, MemoryMB: 768, ULL: true})
	if err != nil {
		t.Fatal(err)
	}
	if sb.MemoryMB() != 768 {
		t.Fatalf("MemoryMB = %d", sb.MemoryMB())
	}
	if !sb.ULL() {
		t.Fatal("ULL flag lost")
	}
}

func TestContextAccessors(t *testing.T) {
	h := newHypervisor(t)
	sb, err := h.CreateSandbox(Config{VCPUs: 1, MemoryMB: 128})
	if err != nil {
		t.Fatal(err)
	}
	pctx, err := h.BeginPause(sb, "test")
	if err != nil {
		t.Fatal(err)
	}
	if pctx.Sandbox() != sb {
		t.Fatal("PauseContext.Sandbox mismatch")
	}
	pctx.Charge("custom", 5)
	if err := pctx.RemoveVCPUs(); err != nil {
		t.Fatal(err)
	}
	report, err := pctx.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pctx.Finish(nil); err == nil {
		t.Fatal("double Finish accepted")
	}
	found := false
	for _, s := range report.Steps {
		if s.Label == "custom" && s.Cost == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("custom charge missing from %v", report.Steps)
	}

	rctx, err := h.BeginResume(sb, "test", true)
	if err != nil {
		t.Fatal(err)
	}
	if rctx.Sandbox() != sb || rctx.Hypervisor() != h {
		t.Fatal("ResumeContext accessors mismatch")
	}
	rctx.Abort()
	rctx.Abort() // idempotent
	if _, err := rctx.Finish(nil); err == nil {
		t.Fatal("Finish after Abort accepted")
	}
}

func TestLeastAssignedULLQueueBalances(t *testing.T) {
	h, err := New(Options{ULLQueues: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With no observers anywhere, the first queue wins.
	q := h.LeastAssignedULLQueue()
	if q != h.ULLQueues()[0] {
		t.Fatal("tie should pick the first queue")
	}
	// Register observers to skew the choice.
	h.ULLQueues()[0].NewPrecomputed()
	h.ULLQueues()[1].NewPrecomputed()
	if got := h.LeastAssignedULLQueue(); got != h.ULLQueues()[2] {
		t.Fatal("LeastAssignedULLQueue did not pick the empty queue")
	}
}
