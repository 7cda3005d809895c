package vmm

import (
	"fmt"
	"testing"

	"github.com/horse-faas/horse/internal/credit2"
	"github.com/horse-faas/horse/internal/runqueue"
	"github.com/horse-faas/horse/internal/simtime"
)

func TestPauseBurnsCreditForRuntime(t *testing.T) {
	h := newHypervisor(t)
	sb, err := h.CreateSandbox(Config{VCPUs: 2, MemoryMB: 128})
	if err != nil {
		t.Fatal(err)
	}
	if sb.ResumedAt() != h.Clock().Now() {
		t.Fatal("fresh sandbox ResumedAt not set")
	}
	h.Clock().Advance(3 * simtime.Millisecond)
	if _, err := h.AppendPause(nil, sb); err != nil {
		t.Fatal(err)
	}
	for _, v := range sb.VCPUs() {
		// Pause itself advances the clock slightly (per-vCPU removal
		// costs), so the burn is at least the 3ms runnable span.
		burnedCredit := credit2.CreditInit - v.Credit
		if burnedCredit < int64(3*simtime.Millisecond) {
			t.Fatalf("%s burned %d, want >= 3ms worth", v.ID, burnedCredit)
		}
	}
}

func TestResumeRefreshesResumedAt(t *testing.T) {
	h := newHypervisor(t)
	sb, err := h.CreateSandbox(Config{VCPUs: 1, MemoryMB: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AppendPause(nil, sb); err != nil {
		t.Fatal(err)
	}
	h.Clock().Advance(simtime.Second) // paused time must not burn credit
	before := sb.VCPUs()[0].Credit
	if _, err := h.AppendResume(nil, sb); err != nil {
		t.Fatal(err)
	}
	if sb.ResumedAt() != h.Clock().Now() {
		t.Fatal("resume did not refresh ResumedAt")
	}
	// Pause immediately: only the tiny resume->pause span burns.
	if _, err := h.AppendPause(nil, sb); err != nil {
		t.Fatal(err)
	}
	after := sb.VCPUs()[0].Credit
	if burned := before - after; burned > int64(simtime.Microsecond) {
		t.Fatalf("paused span burned %d credit; pause time must not burn", burned)
	}
}

func TestCreditEpochResetOnLongRun(t *testing.T) {
	h := newHypervisor(t)
	sb, err := h.CreateSandbox(Config{VCPUs: 1, MemoryMB: 128})
	if err != nil {
		t.Fatal(err)
	}
	// Run far past the 10.5ms allocation: triggers an epoch reset.
	h.Clock().Advance(50 * simtime.Millisecond)
	if _, err := h.AppendPause(nil, sb); err != nil {
		t.Fatal(err)
	}
	// Without a reset the 50ms burn would leave CreditInit - 50ms; the
	// epoch's new allocation lifts the balance above that.
	if v := sb.VCPUs()[0]; v.Credit <= credit2.CreditInit-int64(50*simtime.Millisecond) {
		t.Fatalf("credit %d after a 50ms run: no epoch reset", v.Credit)
	}
}

func TestDestroyUnregistersFromLedger(t *testing.T) {
	h := newHypervisor(t)
	sb, err := h.CreateSandbox(Config{VCPUs: 3, MemoryMB: 128})
	if err != nil {
		t.Fatal(err)
	}
	if h.Ledger().Len() != 3 {
		t.Fatalf("ledger entities = %d, want 3", h.Ledger().Len())
	}
	if err := h.DestroySandbox(sb); err != nil {
		t.Fatal(err)
	}
	if h.Ledger().Len() != 0 {
		t.Fatalf("ledger entities = %d after destroy, want 0", h.Ledger().Len())
	}
}

func TestXenCostModelFlavor(t *testing.T) {
	h, err := New(Options{Costs: XenCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := h.CreateSandbox(Config{VCPUs: 36, MemoryMB: 512})
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
	// Same shape as the Firecracker flavor: the two operations dominate
	// and the total is near 1.2µs at 36 vCPUs ("similar observations").
	if share := rr.TwoOpsShare(); share < 0.875 || share > 0.95 {
		t.Fatalf("Xen two-ops share = %.3f", share)
	}
	if rr.Total < 1000*simtime.Nanosecond || rr.Total > 1400*simtime.Nanosecond {
		t.Fatalf("Xen vanilla resume at 36 vCPUs = %v", rr.Total)
	}
}

// TestSandboxIDText pins the sandbox and vCPU IDs to the text
// fmt.Sprintf gave them, past the widths a stack buffer holds at once.
func TestSandboxIDText(t *testing.T) {
	h := newHypervisor(t)
	for n := 1; n <= 120; n++ {
		sb, err := h.CreateSandbox(Config{VCPUs: 12, MemoryMB: 128})
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("sb%d", n); sb.ID() != want {
			t.Fatalf("sandbox ID %q, want %q", sb.ID(), want)
		}
		for i, v := range sb.VCPUs() {
			if want := fmt.Sprintf("%s/vcpu%d", sb.ID(), i); v.ID != want {
				t.Fatalf("vCPU ID %q, want %q", v.ID, want)
			}
		}
	}
	if got := formatID("sandbox-with-a-long-name", "/vcpu", 1234567); got != "sandbox-with-a-long-name/vcpu1234567" {
		t.Fatalf("formatID past its buffer = %q", got)
	}
}

// TestAccountFollowsVCPU pins the handle a pause burns to the vCPU it
// removes, wherever that vCPU was placed.
func TestAccountFollowsVCPU(t *testing.T) {
	h := newHypervisor(t)
	sb, err := h.CreateSandbox(Config{VCPUs: 3, MemoryMB: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range sb.VCPUs() {
		for pos := range 4 {
			if got := sb.account(v, pos); got != sb.accounts[i] {
				t.Fatalf("vCPU %d at placement %d: account %p, want %p", i, pos, got, sb.accounts[i])
			}
		}
	}
	if sb.account(&runqueue.Entity{}, 0) != nil {
		t.Fatal("a foreign entity found an account")
	}
}
