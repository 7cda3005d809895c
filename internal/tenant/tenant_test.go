package tenant

import (
	"errors"
	"strings"
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
)

func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs("acme:weight=4,rate=5000/s,burst=64,slots=4,mem=4096; batch:rate=20000/s ;solo")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d specs, want 3", len(specs))
	}
	acme := specs[0]
	if acme.Name != "acme" || acme.Weight != 4 || acme.Rate != 5000 || acme.Burst != 64 || acme.Slots != 4 || acme.MemoryMB != 4096 {
		t.Errorf("acme parsed as %+v", acme)
	}
	batch := specs[1]
	if batch.Name != "batch" || batch.Weight != 1 || batch.Rate != 20000 {
		t.Errorf("batch parsed as %+v", batch)
	}
	// Defaults: burst = rate × 10 ms window, slots = weight.
	if batch.Burst != 200 {
		t.Errorf("batch default burst = %g, want 200", batch.Burst)
	}
	if batch.Slots != 1 {
		t.Errorf("batch default slots = %d, want 1", batch.Slots)
	}
	solo := specs[2]
	if solo.Name != "solo" || solo.Weight != 1 || solo.Rate != 0 || solo.Burst != 0 || solo.Slots != 1 || solo.MemoryMB != 0 {
		t.Errorf("solo parsed as %+v", solo)
	}
}

func TestParseSpecsEmpty(t *testing.T) {
	specs, err := ParseSpecs("")
	if err != nil || specs != nil {
		t.Fatalf("empty spec: got %v, %v; want nil, nil", specs, err)
	}
	if _, err := ParseSpecs(" ; ; "); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("separator-only spec: got %v, want ErrBadSpec", err)
	}
}

// TestParseSpecsErrors asserts the parser's error convention: every
// message quotes the offending fragment and its byte offset in the
// spec string.
func TestParseSpecsErrors(t *testing.T) {
	cases := []struct {
		name string
		spec string
		frag string // quoted fragment the error must carry
		at   string // "at offset N" the error must carry
	}{
		{"bad name", "a$b:weight=2", `"a$b:weight=2"`, "at offset 0"},
		{"bad name later clause", "ok:weight=2;a$b:weight=2", `"a$b:weight=2"`, "at offset 12"},
		{"bare key", "acme:weight", `"weight"`, "at offset 5"},
		{"bad weight", "acme:weight=0", `"weight=0"`, "at offset 5"},
		{"bad rate", "acme:rate=-1/s", `"rate=-1/s"`, "at offset 5"},
		{"bad burst", "acme:rate=5/s,burst=0.5", `"burst=0.5"`, "at offset 14"},
		{"bad slots", "acme:slots=-2", `"slots=-2"`, "at offset 5"},
		{"bad mem", "acme:mem=-1", `"mem=-1"`, "at offset 5"},
		{"unknown key", "acme:weight=2,color=red", `"color=red"`, "at offset 14"},
		{"unknown key after space", "acme:weight=2, color=red", `"color=red"`, "at offset 15"},
		{"duplicate", "acme:weight=2;acme:weight=3", `"acme"`, "at offset 14"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpecs(tc.spec)
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseSpecs(%q) = %v, want ErrBadSpec", tc.spec, err)
			}
			msg := err.Error()
			if !strings.Contains(msg, tc.frag) {
				t.Errorf("error %q does not quote fragment %s", msg, tc.frag)
			}
			if !strings.Contains(msg, tc.at) {
				t.Errorf("error %q does not carry position %q", msg, tc.at)
			}
		})
	}
}

func TestSpecRoundTrip(t *testing.T) {
	in := "acme:weight=4,rate=5000/s,burst=64,slots=4,mem=4096;batch:weight=1,rate=20000/s,burst=200,slots=1"
	specs, err := ParseSpecs(in)
	if err != nil {
		t.Fatal(err)
	}
	rendered := FormatSpecs(specs)
	again, err := ParseSpecs(rendered)
	if err != nil {
		t.Fatalf("re-parse %q: %v", rendered, err)
	}
	if len(again) != len(specs) {
		t.Fatalf("round trip changed tenant count: %d vs %d", len(again), len(specs))
	}
	for i := range specs {
		if specs[i] != again[i] {
			t.Errorf("round trip changed spec %d: %+v vs %+v", i, specs[i], again[i])
		}
	}
	if rendered != in {
		t.Errorf("explicit spec did not render byte-identically:\n in: %s\nout: %s", in, rendered)
	}
}

func TestValidName(t *testing.T) {
	for _, good := range []string{"a", "acme", "Acme-2", "a_b.c", "0"} {
		if !ValidName(good) {
			t.Errorf("ValidName(%q) = false, want true", good)
		}
	}
	for _, bad := range []string{"", "a b", "a;b", "a:b", "a=b", "a,b", "é"} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true, want false", bad)
		}
	}
}

func TestEntitlements(t *testing.T) {
	cases := []struct {
		name  string
		specs string
		slots int
		want  map[string]int
	}{
		{"proportional", "a:slots=3;b:slots=1", 8, map[string]int{"a": 6, "b": 2}},
		{"largest remainder", "a:slots=1;b:slots=1;c:slots=1", 4, map[string]int{"a": 2, "b": 1, "c": 1}},
		{"zero share", "a:slots=2;z:weight=1,slots=0", 4, map[string]int{"a": 4, "z": 0}},
		{"no slots", "a:slots=1;b:slots=1", 0, map[string]int{"a": 0, "b": 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			specs, err := ParseSpecs(tc.specs)
			if err != nil {
				t.Fatal(err)
			}
			ctrl, err := New(specs, Options{Slots: tc.slots})
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for name, want := range tc.want {
				idx, ok := ctrl.Lookup(name)
				if !ok {
					t.Fatalf("unknown tenant %q", name)
				}
				if got := ctrl.Entitlement(idx); got != want {
					t.Errorf("entitlement[%s] = %d, want %d", name, got, want)
				}
				total += ctrl.Entitlement(idx)
			}
			if tc.slots > 0 && total != tc.slots {
				t.Errorf("entitlements sum to %d, want %d", total, tc.slots)
			}
		})
	}
}

// at builds a virtual instant ns nanoseconds after the epoch.
func at(ns int64) simtime.Time { return simtime.Time(0).Add(simtime.Duration(ns)) }

func mustController(t *testing.T, spec string, opts Options) *Controller {
	t.Helper()
	specs, err := ParseSpecs(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func TestAdmitRateBucket(t *testing.T) {
	// 1000/s with burst 5: the bucket starts full, admits 5
	// back-to-back, then refills one token per millisecond.
	ctrl := mustController(t, "acme:rate=1000/s,burst=5", Options{})
	idx, _ := ctrl.Lookup("acme")
	now := at(0)
	for i := 0; i < 5; i++ {
		if v := ctrl.Admit(idx, now, false); v != Admitted {
			t.Fatalf("burst admit %d: got %v", i, v)
		}
	}
	if v := ctrl.Admit(idx, now, false); v != RejectedRate {
		t.Fatalf("over-burst admit: got %v, want RejectedRate", v)
	}
	if v := ctrl.Admit(idx, at(1_000_000), false); v != Admitted {
		t.Fatalf("post-refill admit: got %v, want Admitted", v)
	}
	if v := ctrl.Admit(idx, at(1_000_000), false); v != RejectedRate {
		t.Fatalf("second same-instant admit: got %v, want RejectedRate", v)
	}
}

func TestAdmitUnlimitedTenantAndUntenanted(t *testing.T) {
	ctrl := mustController(t, "acme", Options{})
	idx, _ := ctrl.Lookup("acme")
	for i := 0; i < 100; i++ {
		if v := ctrl.Admit(idx, at(int64(i)), true); v != Admitted {
			t.Fatalf("unlimited tenant rejected at %d: %v", i, v)
		}
		if v := ctrl.Admit(-1, at(int64(i)), true); v != Admitted {
			t.Fatalf("untenanted rejected at %d: %v", i, v)
		}
	}
	var nilCtrl *Controller
	if v := nilCtrl.Admit(0, at(0), true); v != Admitted {
		t.Fatalf("nil controller rejected: %v", v)
	}
}

// TestAdmitFairShare pins the DRR gate's weighted split: with the
// aggregate uLL bandwidth contested by a 3:1 weight pair, admissions
// settle near 3:1, and the loser's overflow is charged as ull-share
// rejects.
func TestAdmitFairShare(t *testing.T) {
	ctrl := mustController(t, "heavy:weight=3;light:weight=1", Options{ULLRate: 4000})
	heavy, _ := ctrl.Lookup("heavy")
	light, _ := ctrl.Lookup("light")
	// Both tenants offer 4000/s each against the 4000/s aggregate: one
	// arrival per tenant every 250 µs over 1 s.
	var heavyAdmitted, lightAdmitted float64
	lightRejShare := 0
	for i := int64(0); i < 4000; i++ {
		now := at(i * 250_000)
		if ctrl.Admit(heavy, now, true) == Admitted {
			heavyAdmitted++
		}
		switch ctrl.Admit(light, now, true) {
		case Admitted:
			lightAdmitted++
		case RejectedShare:
			lightRejShare++
		}
	}
	// Aggregate supply over 1 s is ~4000 admissions (+ initial quanta);
	// demand is 8000. heavy's guaranteed refill is 3000/s, light's
	// 1000/s, and both consume their full guarantee plus a share of
	// nothing (no idle capacity), so the split lands near 3:1.
	ratio := heavyAdmitted / lightAdmitted
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("heavy:light admission ratio = %.2f (heavy %v, light %v), want ≈3", ratio, heavyAdmitted, lightAdmitted)
	}
	if lightRejShare == 0 {
		t.Error("contested light tenant recorded no ull-share rejects")
	}
}

// TestAdmitBorrowIdleShare pins the borrow half of the contract: when
// one tenant is idle, its refill spills into the shared bucket and a
// busy tenant admits beyond its own guaranteed rate by borrowing.
func TestAdmitBorrowIdleShare(t *testing.T) {
	ctrl := mustController(t, "busy:weight=1;idle:weight=1", Options{ULLRate: 2000})
	busy, _ := ctrl.Lookup("busy")
	// busy offers 2000/s — double its 1000/s guarantee — for 1 s while
	// idle offers nothing.
	var admitted uint64
	for i := int64(0); i < 2000; i++ {
		if ctrl.Admit(busy, at(i*500_000), true) == Admitted {
			admitted++
		}
	}
	// With borrowing, busy should absorb nearly the full aggregate
	// 2000/s; without it, it would cap near its guaranteed 1000.
	if admitted < 1800 {
		t.Errorf("busy admitted %d of 2000 with an idle peer, want ≥1800 (borrowing)", admitted)
	}
	// The spill bucket is capped: idle's unused share never accumulates
	// beyond one burst window, so a long-idle system cannot bank an
	// unbounded burst allowance.
	if ctrl.spill > ctrl.spillCap {
		t.Errorf("spill %g exceeds cap %g", ctrl.spill, ctrl.spillCap)
	}
}

// TestAdmitPreemptionProtection pins the protection half: a greedy
// tenant's burst can exhaust the spill bucket, but it can never draw
// down a steady tenant's own deficit stream.
func TestAdmitPreemptionProtection(t *testing.T) {
	ctrl := mustController(t, "greedy:weight=1;steady:weight=1", Options{ULLRate: 2000})
	greedy, _ := ctrl.Lookup("greedy")
	steady, _ := ctrl.Lookup("steady")
	// Greedy floods 20 arrivals every 1 ms; steady offers exactly its
	// guaranteed 1000/s (one arrival per ms).
	var steadyRejects uint64
	for ms := int64(0); ms < 1000; ms++ {
		now := at(ms * 1_000_000)
		for k := 0; k < 20; k++ {
			ctrl.Admit(greedy, now, true)
		}
		if ctrl.Admit(steady, now, true) != Admitted {
			steadyRejects++
		}
	}
	// Steady stays within its guaranteed refill, so the greedy flood —
	// which empties the spill bucket every epoch — must not cost steady
	// more than the quantization slack of the first instants.
	if steadyRejects > 10 {
		t.Errorf("steady tenant rejected %d of 1000 at its guaranteed rate under a greedy flood", steadyRejects)
	}
}

// TestResetCounters pins run-to-run determinism: after a reset, an
// identical arrival sequence yields identical verdicts.
func TestResetCounters(t *testing.T) {
	ctrl := mustController(t, "a:weight=2,rate=2000/s;b:weight=1", Options{ULLRate: 3000})
	ai, _ := ctrl.Lookup("a")
	bi, _ := ctrl.Lookup("b")
	drive := func() []Verdict {
		var vs []Verdict
		for i := int64(0); i < 3000; i++ {
			vs = append(vs, ctrl.Admit(ai, at(i*300_000), true))
			if i%3 == 0 {
				vs = append(vs, ctrl.Admit(bi, at(i*300_000), true))
			}
		}
		return vs
	}
	first := drive()
	ctrl.ResetCounters()
	second := drive()
	if len(first) != len(second) {
		t.Fatalf("verdict counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("verdict %d differs after reset: %v vs %v", i, first[i], second[i])
		}
	}
}

func TestControllerNewErrors(t *testing.T) {
	if _, err := New(nil, Options{}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("empty specs: got %v, want ErrBadSpec", err)
	}
	if _, err := New([]Spec{{Name: "a"}, {Name: "a"}}, Options{}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("duplicate names: got %v, want ErrBadSpec", err)
	}
	if _, err := New([]Spec{{Name: "bad name"}}, Options{}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("invalid name: got %v, want ErrBadSpec", err)
	}
	if _, err := New([]Spec{{Name: "a"}}, Options{Slots: -1}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("negative slots: got %v, want ErrBadSpec", err)
	}
	if _, err := New([]Spec{{Name: "a"}}, Options{ULLRate: -5}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("negative uLL rate: got %v, want ErrBadSpec", err)
	}
}

func TestVerdictReason(t *testing.T) {
	if Admitted.Reason() != "" || RejectedRate.Reason() != "rate" || RejectedShare.Reason() != "ull-share" {
		t.Errorf("verdict reasons = %q/%q/%q", Admitted.Reason(), RejectedRate.Reason(), RejectedShare.Reason())
	}
}
