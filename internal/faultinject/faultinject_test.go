package faultinject

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Check(SiteResume); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
	if got := in.SiteStats(SiteResume); got != (Stats{}) {
		t.Fatalf("nil injector stats = %+v", got)
	}
	if in.AllStats() != nil {
		t.Fatal("nil injector AllStats != nil")
	}
	if in.String() != "" {
		t.Fatalf("nil injector String = %q", in.String())
	}
}

func TestUnarmedSitePasses(t *testing.T) {
	in, err := New(1, Rule{Site: SitePause, Nth: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := in.Check(SiteResume); err != nil {
			t.Fatalf("unarmed site injected at visit %d: %v", i+1, err)
		}
	}
}

func TestNthFiresExactlyOnce(t *testing.T) {
	in, err := New(1, Rule{Site: SiteResume, Nth: 3})
	if err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 1; i <= 10; i++ {
		if err := in.Check(SiteResume); err != nil {
			fired = append(fired, i)
			var fe *Error
			if !errors.As(err, &fe) || fe.Site != SiteResume || fe.Visit != 3 {
				t.Fatalf("visit %d: bad injected error %v", i, err)
			}
		}
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("nth=3 fired at visits %v, want [3]", fired)
	}
	st := in.SiteStats(SiteResume)
	if st.Visits != 10 || st.Injected != 1 {
		t.Fatalf("stats = %+v, want 10 visits, 1 injected", st)
	}
}

func TestEveryFiresPeriodically(t *testing.T) {
	in, err := New(1, Rule{Site: SitePause, Every: 4})
	if err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 1; i <= 12; i++ {
		if in.Check(SitePause) != nil {
			fired = append(fired, i)
		}
	}
	want := []int{4, 8, 12}
	if len(fired) != len(want) {
		t.Fatalf("every=4 fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("every=4 fired at %v, want %v", fired, want)
		}
	}
}

func TestRateIsDeterministicPerSeed(t *testing.T) {
	pattern := func(seed int64) []bool {
		t.Helper()
		in, err := New(seed, Rule{Site: SiteResume, Rate: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 500)
		for i := range out {
			out[i] = in.Check(SiteResume) != nil
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at visit %d", i+1)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 500-visit patterns")
	}
	injected := 0
	for _, f := range a {
		if f {
			injected++
		}
	}
	// 500 draws at 30%: expect ≈150; a gross deviation means the rate
	// is not being applied.
	if injected < 100 || injected > 200 {
		t.Fatalf("rate=0.3 injected %d/500", injected)
	}
}

func TestSitesDrawIndependently(t *testing.T) {
	// Interleaving checks of a second site must not perturb the first
	// site's draw sequence.
	solo, err := New(7, Rule{Site: SiteResume, Rate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := New(7, Rule{Site: SiteResume, Rate: 0.5}, Rule{Site: SitePause, Rate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		a := solo.Check(SiteResume) != nil
		mixed.Check(SitePause)
		b := mixed.Check(SiteResume) != nil
		if a != b {
			t.Fatalf("visit %d: interleaved pause checks changed the resume pattern", i+1)
		}
	}
}

func TestWrappedError(t *testing.T) {
	busy := errors.New("simulated busy")
	in, err := New(1, Rule{Site: SiteResume, Nth: 1, Err: busy})
	if err != nil {
		t.Fatal(err)
	}
	got := in.Check(SiteResume)
	if got == nil {
		t.Fatal("nth=1 did not fire")
	}
	if !errors.Is(got, ErrInjected) {
		t.Fatalf("injected error does not match ErrInjected: %v", got)
	}
	if !errors.Is(got, busy) {
		t.Fatalf("injected error does not match wrapped error: %v", got)
	}
	var fe *Error
	if !errors.As(got, &fe) || fe.Err != busy {
		t.Fatalf("errors.As failed or lost the wrapped error: %v", got)
	}
}

func TestRuleValidation(t *testing.T) {
	tests := []struct {
		name string
		rule Rule
	}{
		{"no site", Rule{Rate: 0.5}},
		{"no trigger", Rule{Site: SiteResume}},
		{"two triggers", Rule{Site: SiteResume, Rate: 0.5, Nth: 1}},
		{"rate above 1", Rule{Site: SiteResume, Rate: 1.5}},
		{"negative rate", Rule{Site: SiteResume, Rate: -0.1}},
		{"NaN rate", Rule{Site: SiteResume, Rate: math.NaN()}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(1, tt.rule); err == nil {
				t.Fatalf("rule %+v accepted", tt.rule)
			}
		})
	}
}

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("resume:rate=0.05, pause:nth=3,invoke:every=100")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(rules))
	}
	if rules[0] != (Rule{Site: SiteResume, Rate: 0.05}) {
		t.Fatalf("rule 0 = %+v", rules[0])
	}
	if rules[1] != (Rule{Site: SitePause, Nth: 3}) {
		t.Fatalf("rule 1 = %+v", rules[1])
	}
	if rules[2] != (Rule{Site: SiteInvoke, Every: 100}) {
		t.Fatalf("rule 2 = %+v", rules[2])
	}

	for _, bad := range []string{
		"resume",
		"resume:rate",
		"warp:rate=0.5",
		"resume:rate=2",
		"resume:rate=0",
		"resume:rate=NaN",
		"resume:nth=0",
		"resume:every=0",
		"resume:often=1",
	} {
		if _, err := ParseSpec(bad); !errors.Is(err, ErrBadSpec) {
			t.Errorf("spec %q: err = %v, want ErrBadSpec", bad, err)
		}
	}
}

// TestParseSpecErrorPositions pins the parser's error convention:
// messages quote the offending fragment and its byte offset in the
// original spec, even for clauses deep in a long flag value.
func TestParseSpecErrorPositions(t *testing.T) {
	cases := []struct {
		name string
		spec string
		frag string
		at   string
	}{
		{"no colon", "resume", `"resume"`, "at offset 0"},
		{"no colon later", "resume:rate=0.5, pause", `"pause"`, "at offset 17"},
		{"unknown site", "resume:rate=0.5,warp:rate=0.5", `"warp"`, "at offset 16"},
		{"bare trigger", "resume:rate", `"rate"`, "at offset 7"},
		{"bad rate", "pause:nth=3,resume:rate=2", `"rate=2"`, "at offset 19"},
		{"bad nth", "resume:nth=0", `"nth=0"`, "at offset 7"},
		{"bad every", "invoke:every=x", `"every=x"`, "at offset 7"},
		{"unknown trigger", "resume:often=1", `"often=1"`, "at offset 7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(tc.spec)
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseSpec(%q) = %v, want ErrBadSpec", tc.spec, err)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("error %q does not quote %s", err, tc.frag)
			}
			if !strings.Contains(err.Error(), tc.at) {
				t.Errorf("error %q does not carry %q", err, tc.at)
			}
		})
	}
}

func TestFromSpecRoundTrip(t *testing.T) {
	in, err := FromSpec(9, "pause:nth=3,resume:rate=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if got := in.String(); got != "pause:nth=3,resume:rate=0.05" {
		t.Fatalf("String = %q", got)
	}
	empty, err := FromSpec(9, "  ")
	if err != nil {
		t.Fatal(err)
	}
	if empty != nil {
		t.Fatal("empty spec built a non-nil injector")
	}
}

func TestErrorMessages(t *testing.T) {
	e := &Error{Site: SiteResume, Visit: 4}
	if want := "faultinject: injected fault at resume (visit 4)"; e.Error() != want {
		t.Fatalf("Error() = %q, want %q", e.Error(), want)
	}
	wrapped := &Error{Site: SitePause, Visit: 2, Err: fmt.Errorf("inner")}
	if want := "faultinject: injected fault at pause (visit 2): inner"; wrapped.Error() != want {
		t.Fatalf("Error() = %q, want %q", wrapped.Error(), want)
	}
}

func TestDeriveIndependentDeterministicStreams(t *testing.T) {
	var nilIn *Injector
	if nilIn.Derive("node00") != nil {
		t.Fatal("nil injector derived a non-nil child")
	}
	parent, err := New(42,
		Rule{Site: SiteInvoke, Rate: 0.5},
		Rule{Site: SiteResume, Nth: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(in *Injector, site Site, n int) string {
		out := ""
		for i := 0; i < n; i++ {
			if in.Check(site) != nil {
				out += "x"
			} else {
				out += "."
			}
		}
		return out
	}
	// Same scope, same seed ⇒ the same child stream, bit for bit.
	a := draw(parent.Derive("node00"), SiteInvoke, 64)
	b := draw(parent.Derive("node00"), SiteInvoke, 64)
	if a != b {
		t.Fatalf("same-scope children diverged:\n%s\n%s", a, b)
	}
	// Different scopes ⇒ independent streams (at rate 0.5 over 64 draws,
	// identical patterns mean the seed mixing is broken).
	if c := draw(parent.Derive("node01"), SiteInvoke, 64); c == a {
		t.Fatalf("scopes node00 and node01 produced identical draw patterns: %s", c)
	}
	// The child arms the parent's rules with fresh visit counters: nth=3
	// fires on the child's own third visit regardless of parent visits.
	parent.Check(SiteResume)
	parent.Check(SiteResume)
	child := parent.Derive("node00")
	if err := child.Check(SiteResume); err != nil {
		t.Fatalf("child visit 1 fired: %v", err)
	}
	if err := child.Check(SiteResume); err != nil {
		t.Fatalf("child visit 2 fired: %v", err)
	}
	if err := child.Check(SiteResume); !errors.Is(err, ErrInjected) {
		t.Fatalf("child visit 3 = %v, want injected fault", err)
	}
	// Deriving never perturbs the parent's own counters or streams.
	if got := parent.SiteStats(SiteResume).Visits; got != 2 {
		t.Fatalf("parent resume visits = %d, want 2", got)
	}
}
