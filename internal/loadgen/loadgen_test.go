package loadgen

import (
	"errors"
	"reflect"
	"testing"

	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
)

func TestParseSpec(t *testing.T) {
	tests := []struct {
		give string
		want Spec
	}{
		{"poisson:rate=500/s", Spec{Kind: KindPoisson, Rate: 500}},
		{"poisson:rate=2.5", Spec{Kind: KindPoisson, Rate: 2.5}},
		{"onoff:on=1ms,off=9ms,rate=2000/s", Spec{Kind: KindOnOff, Rate: 2000, On: simtime.Millisecond, Off: 9 * simtime.Millisecond}},
		{" onoff:on=500us, off=2ms ,rate=100/s", Spec{Kind: KindOnOff, Rate: 100, On: 500 * simtime.Microsecond, Off: 2 * simtime.Millisecond}},
	}
	for _, tt := range tests {
		got, err := ParseSpec(tt.give)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tt.give, err)
		}
		if got != tt.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tt.give, got, tt.want)
		}
		// The rendered form must parse back to the same spec.
		round, err := ParseSpec(got.String())
		if err != nil || round != got {
			t.Errorf("round-trip of %q via %q = %+v, %v", tt.give, got.String(), round, err)
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	bad := []string{
		"",
		"poisson",
		"uniform:rate=5/s",
		"poisson:rate=0/s",
		"poisson:rate=-3",
		"poisson:rate=NaN",
		"poisson:rate=Inf",
		"poisson:rate=1e99",
		"poisson:rate=5/s,on=1ms",
		"onoff:rate=5/s",
		"onoff:on=1ms,rate=5/s",
		"onoff:on=0s,off=1ms,rate=5/s",
		"onoff:on=1ms,off=1ms",
		"onoff:on=1ms,off=2h,rate=5/s",
		"poisson:burst=3",
		"poisson:rate",
	}
	for _, give := range bad {
		if got, err := ParseSpec(give); err == nil {
			t.Errorf("ParseSpec(%q) = %+v, want error", give, got)
		} else if !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseSpec(%q) error %v does not wrap ErrBadSpec", give, err)
		}
	}
}

func TestParseWorkloads(t *testing.T) {
	got, err := ParseWorkloads("scan=poisson:rate=2000/s;thumbnail=onoff:on=10ms,off=90ms,rate=500/s,mode=warm;firewall=poisson:rate=500/s,mode=horse:0.9+warm:0.1")
	if err != nil {
		t.Fatal(err)
	}
	want := []Workload{
		{Function: "scan", Spec: Spec{Kind: KindPoisson, Rate: 2000}, Mix: SingleMode(faas.ModeHorse)},
		{Function: "thumbnail", Spec: Spec{Kind: KindOnOff, Rate: 500, On: 10 * simtime.Millisecond, Off: 90 * simtime.Millisecond}, Mix: SingleMode(faas.ModeWarm)},
		{Function: "firewall", Spec: Spec{Kind: KindPoisson, Rate: 500}, Mix: ModeMix{{Mode: faas.ModeHorse, Weight: 0.9}, {Mode: faas.ModeWarm, Weight: 0.1}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseWorkloads = %+v\nwant %+v", got, want)
	}
}

func TestParseWorkloadsRejects(t *testing.T) {
	bad := []string{
		"",
		";",
		"scan",
		"=poisson:rate=5/s",
		"scan=poisson:rate=5/s;scan=poisson:rate=6/s",
		"scan=poisson:rate=5/s,mode=bogus",
		"scan=poisson:rate=5/s,mode=horse:NaN",
		"scan=poisson:rate=5/s,mode=",
	}
	for _, give := range bad {
		if got, err := ParseWorkloads(give); err == nil {
			t.Errorf("ParseWorkloads(%q) = %+v, want error", give, got)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	ws, err := ParseWorkloads("scan=poisson:rate=5000/s;nat=onoff:on=1ms,off=4ms,rate=20000/s,mode=horse:0.7+warm:0.3")
	if err != nil {
		t.Fatal(err)
	}
	collect := func() []Arrival {
		g, err := New(42, ws, Options{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := g.Collect(50 * simtime.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) == 0 {
		t.Fatal("no arrivals generated")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different arrival streams")
	}
	g, err := New(43, ws, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := g.Collect(50 * simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical arrival streams")
	}
}

func TestGeneratorOpenLoopProperties(t *testing.T) {
	ws := []Workload{
		{Function: "scan", Spec: Spec{Kind: KindPoisson, Rate: 10000}, Mix: SingleMode(faas.ModeHorse)},
		{Function: "burst", Spec: Spec{Kind: KindOnOff, Rate: 50000, On: simtime.Millisecond, Off: 9 * simtime.Millisecond}, Mix: SingleMode(faas.ModeWarm)},
	}
	g, err := New(7, ws, Options{})
	if err != nil {
		t.Fatal(err)
	}
	horizon := 100 * simtime.Millisecond
	arrivals, err := g.Collect(horizon)
	if err != nil {
		t.Fatal(err)
	}
	var last simtime.Time
	perFn := map[string]int{}
	for i, a := range arrivals {
		if a.Seq != uint64(i) {
			t.Fatalf("arrival %d has seq %d", i, a.Seq)
		}
		if a.At.Before(last) {
			t.Fatalf("arrival %d at %v before predecessor at %v", i, a.At, last)
		}
		if !a.At.Before(simtime.Time(0).Add(horizon)) {
			t.Fatalf("arrival %d at %v beyond horizon", i, a.At)
		}
		last = a.At
		perFn[a.Function]++
		if a.Function == "burst" {
			// Every burst arrival must land inside an ON window.
			offset := simtime.Duration(int64(a.At) % int64(10*simtime.Millisecond))
			if offset >= simtime.Millisecond {
				t.Fatalf("ON/OFF arrival at %v lands %v into the period (OFF window)", a.At, offset)
			}
		}
	}
	// Poisson at 10k/s over 100ms ⇒ ~1000 arrivals; ON/OFF at 50k/s with
	// a 10% duty cycle ⇒ ~500. Allow wide tolerance: this checks rate
	// plumbing, not the PRNG's quality.
	if n := perFn["scan"]; n < 700 || n > 1300 {
		t.Errorf("poisson arrivals = %d, want ≈1000", n)
	}
	if n := perFn["burst"]; n < 300 || n > 700 {
		t.Errorf("onoff arrivals = %d, want ≈500", n)
	}
}

func TestGeneratorModeMix(t *testing.T) {
	ws := []Workload{{
		Function: "scan",
		Spec:     Spec{Kind: KindPoisson, Rate: 10000},
		Mix:      ModeMix{{Mode: faas.ModeHorse, Weight: 3}, {Mode: faas.ModeWarm, Weight: 1}},
	}}
	g, err := New(11, ws, Options{})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := g.Collect(200 * simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[faas.StartMode]int{}
	for _, a := range arrivals {
		byMode[a.Mode]++
	}
	total := len(arrivals)
	if total < 1000 {
		t.Fatalf("only %d arrivals", total)
	}
	horseShare := float64(byMode[faas.ModeHorse]) / float64(total)
	if horseShare < 0.65 || horseShare > 0.85 {
		t.Errorf("horse share = %.3f, want ≈0.75", horseShare)
	}
	if byMode[faas.ModeWarm] == 0 {
		t.Error("mode mix never drew warm")
	}
}

func TestGeneratorMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	ws := []Workload{{Function: "scan", Spec: Spec{Kind: KindPoisson, Rate: 1000}, Mix: SingleMode(faas.ModeHorse)}}
	g, err := New(1, ws, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := g.Collect(100 * simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	got := reg.Counter("loadgen_arrivals_total", "function", "scan").Value()
	if got != uint64(len(arrivals)) {
		t.Errorf("loadgen_arrivals_total = %d, want %d", got, len(arrivals))
	}
}

func TestNewRejects(t *testing.T) {
	okSpec := Spec{Kind: KindPoisson, Rate: 5}
	tests := []struct {
		name string
		ws   []Workload
	}{
		{"empty", nil},
		{"no function", []Workload{{Spec: okSpec, Mix: SingleMode(faas.ModeCold)}}},
		{"bad spec", []Workload{{Function: "f", Spec: Spec{Kind: KindPoisson}, Mix: SingleMode(faas.ModeCold)}}},
		{"empty mix", []Workload{{Function: "f", Spec: okSpec}}},
	}
	for _, tt := range tests {
		if _, err := New(1, tt.ws, Options{}); err == nil {
			t.Errorf("%s: New accepted invalid workloads", tt.name)
		}
	}
}

// TestStreamEpochs pulls a stream in epochs the way a cluster run does
// — every arrival at or before each epoch end — and checks that the
// epochs concatenate to exactly what one Collect returns, including the
// arrivals that land on an epoch boundary.
func TestStreamEpochs(t *testing.T) {
	ws, err := ParseWorkloads("scan=poisson:rate=2e8/s;nat=onoff:on=1us,off=2us,rate=5e8/s,mode=horse:0.5+warm:0.5")
	if err != nil {
		t.Fatal(err)
	}
	horizon := 10 * simtime.Microsecond
	g, err := New(5, ws, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.Collect(horizon)
	if err != nil {
		t.Fatal(err)
	}
	start, end := simtime.Time(0), simtime.Time(0).Add(horizon)
	s, err := g.Stream(start, end)
	if err != nil {
		t.Fatal(err)
	}
	var got []Arrival
	boundary := 0
	for now := start; now.Before(end); now = now.Add(7 * simtime.Nanosecond) {
		for a, ok := s.Next(now); ok; a, ok = s.Next(now) {
			if a.At.After(now) {
				t.Fatalf("arrival at %v pulled for epoch ending %v", a.At, now)
			}
			if a.At == now {
				boundary++
			}
			got = append(got, a)
		}
	}
	for a, ok := s.Next(end); ok; a, ok = s.Next(end) {
		got = append(got, a)
	}
	if boundary == 0 {
		t.Fatal("no arrival landed on an epoch boundary")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("epoch pulls returned %d arrivals differing from Collect's %d", len(got), len(want))
	}
	if _, err := g.Stream(end, end); err == nil {
		t.Fatal("Stream accepted a horizon not after its start")
	}
}
