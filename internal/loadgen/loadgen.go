// Package loadgen generates open-loop trigger traffic on the virtual
// clock for the cluster experiments (DESIGN.md §11).
//
// Open-loop means arrivals are generated by the workload's own arrival
// process, independent of how fast the system serves them — the only
// regime in which queueing delay is measurable rather than hidden by
// closed-loop self-throttling ("open versus closed" is the classic
// load-testing trap; the cluster report's latency percentiles include
// the queue wait precisely because the generator never waits).
//
// Two arrival processes cover the paper's traffic shapes:
//
//   - Poisson: exponentially distributed inter-arrival gaps at a fixed
//     mean rate — the steady-state component of FaaS traffic.
//   - ON/OFF (bursty): alternating ON windows of Poisson arrivals and
//     silent OFF windows — the bursty component that makes uLL
//     reservation pay (a burst landing on a cold node eats the cold
//     cliff; a uLL-reserved node absorbs it at hot-resume cost).
//
// Every workload draws from its own PRNG stream derived from the
// generator seed and the workload's position (seed ^ fnv64a(index:fn)),
// so adding a workload never perturbs the arrival sequence of another
// and the same seed reproduces the same traffic bit-for-bit.
package loadgen

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/simtime"
	"github.com/horse-faas/horse/internal/telemetry"
	"github.com/horse-faas/horse/internal/tenant"
)

// Kind selects an arrival process.
type Kind int

// The supported arrival processes.
const (
	// KindPoisson draws exponential inter-arrival gaps at Spec.Rate.
	KindPoisson Kind = iota + 1
	// KindOnOff alternates ON windows of Poisson arrivals at Spec.Rate
	// with silent OFF windows.
	KindOnOff
)

// String returns the kind's spec-syntax name.
func (k Kind) String() string {
	switch k {
	case KindPoisson:
		return "poisson"
	case KindOnOff:
		return "onoff"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Errors reported by the parser and generator.
var (
	ErrBadSpec     = errors.New("loadgen: bad arrival spec")
	ErrNoWorkloads = errors.New("loadgen: no workloads")
)

// Spec is one arrival process: the -arrivals flag clause after the
// function name, e.g. "poisson:rate=500/s" or
// "onoff:on=1ms,off=9ms,rate=2000/s".
type Spec struct {
	Kind Kind
	// Rate is the mean arrival rate in triggers per virtual second
	// (during ON windows for KindOnOff).
	Rate float64
	// On and Off are the window lengths for KindOnOff.
	On  simtime.Duration
	Off simtime.Duration
}

func (s Spec) validate() error {
	switch s.Kind {
	case KindPoisson:
		if s.Rate <= 0 {
			return fmt.Errorf("%w: poisson needs rate > 0", ErrBadSpec)
		}
		if s.On != 0 || s.Off != 0 {
			return fmt.Errorf("%w: poisson takes no on/off windows", ErrBadSpec)
		}
	case KindOnOff:
		if s.Rate <= 0 {
			return fmt.Errorf("%w: onoff needs rate > 0", ErrBadSpec)
		}
		if s.On <= 0 || s.Off <= 0 {
			return fmt.Errorf("%w: onoff needs on > 0 and off > 0", ErrBadSpec)
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadSpec, int(s.Kind))
	}
	return nil
}

// String renders the spec back in ParseSpec syntax.
func (s Spec) String() string {
	switch s.Kind {
	case KindOnOff:
		return fmt.Sprintf("onoff:on=%s,off=%s,rate=%s/s", s.On, s.Off, formatRate(s.Rate))
	default:
		return fmt.Sprintf("poisson:rate=%s/s", formatRate(s.Rate))
	}
}

// formatRate renders a rate without trailing zeros so specs round-trip
// byte-identically.
func formatRate(r float64) string { return strconv.FormatFloat(r, 'g', -1, 64) }

// ParseSpec parses one arrival-process clause:
//
//	poisson:rate=500/s
//	onoff:on=1ms,off=9ms,rate=2000/s
//
// Rates accept an optional "/s" suffix; durations use Go duration
// syntax (1ms, 500us, 2s).
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	kindName, params, ok := strings.Cut(s, ":")
	if !ok {
		return Spec{}, fmt.Errorf("%w: %q: want kind:key=value,...", ErrBadSpec, s)
	}
	var spec Spec
	switch kindName {
	case "poisson":
		spec.Kind = KindPoisson
	case "onoff":
		spec.Kind = KindOnOff
	default:
		return Spec{}, fmt.Errorf("%w: unknown kind %q (want poisson or onoff)", ErrBadSpec, kindName)
	}
	for _, kv := range strings.Split(params, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, value, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("%w: %q: want key=value", ErrBadSpec, kv)
		}
		switch key {
		case "rate":
			r, err := parseRate(value)
			if err != nil {
				return Spec{}, err
			}
			spec.Rate = r
		case "on":
			d, err := parseDuration(value)
			if err != nil {
				return Spec{}, err
			}
			spec.On = d
		case "off":
			d, err := parseDuration(value)
			if err != nil {
				return Spec{}, err
			}
			spec.Off = d
		default:
			return Spec{}, fmt.Errorf("%w: unknown key %q (want rate, on, off)", ErrBadSpec, key)
		}
	}
	if err := spec.validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// Parser bounds. Rates below the floor would draw inter-arrival gaps
// that overflow virtual time; windows above the cap would let one
// ON/OFF period outlast any realistic simulation horizon.
const (
	minRate   = 1e-6 // one arrival per ~11.6 virtual days
	maxRate   = 1e12 // one arrival per virtual picosecond
	maxWindow = 3600 * simtime.Second
)

// parseRate parses "500/s", "2.5/s", or a bare number (per second).
// The comparisons are written negated so NaN is rejected.
func parseRate(s string) (float64, error) {
	s = strings.TrimSuffix(s, "/s")
	r, err := strconv.ParseFloat(s, 64)
	if err != nil || !(r >= minRate) || !(r <= maxRate) {
		return 0, fmt.Errorf("%w: rate %q must be arrivals per second in [%g, %g]", ErrBadSpec, s, minRate, maxRate)
	}
	return r, nil
}

// parseDuration parses a Go-syntax duration into virtual time. The
// bound guards the generator against specs whose ON/OFF periods would
// overflow the virtual horizon.
func parseDuration(s string) (simtime.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 || simtime.Duration(d) > maxWindow {
		return 0, fmt.Errorf("%w: duration %q must be a positive Go duration of at most 1h (1ms, 500us, 2s)", ErrBadSpec, s)
	}
	return simtime.Duration(d), nil
}

// ModeShare is one entry of a mode mix.
type ModeShare struct {
	Mode   faas.StartMode
	Weight float64
}

// ModeMix is the per-function distribution over start modes an arrival
// draws from. Weights are relative; they need not sum to 1.
type ModeMix []ModeShare

// SingleMode returns a mix that always selects mode.
func SingleMode(mode faas.StartMode) ModeMix { return ModeMix{{Mode: mode, Weight: 1}} }

func (m ModeMix) validate() error {
	if len(m) == 0 {
		return fmt.Errorf("%w: empty mode mix", ErrBadSpec)
	}
	total := 0.0
	for _, s := range m {
		if !(s.Weight >= 0) || !(s.Weight <= maxRate) {
			return fmt.Errorf("%w: mode weight %v must be a finite non-negative number", ErrBadSpec, s.Weight)
		}
		total += s.Weight
	}
	if total <= 0 {
		return fmt.Errorf("%w: mode mix has zero total weight", ErrBadSpec)
	}
	return nil
}

// draw picks a mode from the mix using one uniform variate.
func (m ModeMix) draw(u float64) faas.StartMode {
	total := 0.0
	for _, s := range m {
		total += s.Weight
	}
	x := u * total
	for _, s := range m {
		x -= s.Weight
		if x < 0 {
			return s.Mode
		}
	}
	return m[len(m)-1].Mode
}

// String renders the mix in ParseWorkloads syntax
// ("horse" or "horse:0.9+cold:0.1").
func (m ModeMix) String() string {
	if len(m) == 1 {
		return m[0].Mode.String()
	}
	parts := make([]string, 0, len(m))
	for _, s := range m {
		parts = append(parts, fmt.Sprintf("%s:%s", s.Mode, formatRate(s.Weight)))
	}
	return strings.Join(parts, "+")
}

// parseModeMix parses "horse", "horse:0.9+cold:0.1".
func parseModeMix(s string) (ModeMix, error) {
	var mix ModeMix
	for _, part := range strings.Split(s, "+") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, hasWeight := strings.Cut(part, ":")
		mode, err := ParseMode(name)
		if err != nil {
			return nil, err
		}
		weight := 1.0
		if hasWeight {
			weight, err = strconv.ParseFloat(weightStr, 64)
			if err != nil || !(weight >= 0) || !(weight <= maxRate) {
				return nil, fmt.Errorf("%w: mode weight %q must be a finite non-negative number", ErrBadSpec, weightStr)
			}
		}
		mix = append(mix, ModeShare{Mode: mode, Weight: weight})
	}
	if err := mix.validate(); err != nil {
		return nil, err
	}
	return mix, nil
}

// ParseMode parses a start-mode name.
func ParseMode(name string) (faas.StartMode, error) {
	switch name {
	case "cold":
		return faas.ModeCold, nil
	case "restore":
		return faas.ModeRestore, nil
	case "warm":
		return faas.ModeWarm, nil
	case "horse":
		return faas.ModeHorse, nil
	default:
		return 0, fmt.Errorf("%w: unknown start mode %q (want cold, restore, warm, horse)", ErrBadSpec, name)
	}
}

// Workload binds one function name to an arrival process, a mode mix,
// and (optionally) an owning tenant.
type Workload struct {
	Function string
	Spec     Spec
	Mix      ModeMix
	// Tenant names the tenant this workload's triggers are charged to
	// under cluster admission control ("" = untenanted, never gated).
	Tenant string
}

// String renders the workload in ParseWorkloads syntax.
func (w Workload) String() string {
	if w.Tenant != "" {
		return fmt.Sprintf("%s=%s,mode=%s,tenant=%s", w.Function, w.Spec, w.Mix, w.Tenant)
	}
	return fmt.Sprintf("%s=%s,mode=%s", w.Function, w.Spec, w.Mix)
}

// ParseWorkloads parses the -arrivals flag: semicolon-separated
// function=spec clauses, each optionally carrying a mode mix and a
// tenant tag:
//
//	scan=poisson:rate=2000/s;thumbnail=onoff:on=10ms,off=90ms,rate=500/s,mode=warm
//	firewall=poisson:rate=500/s,mode=horse:0.9+warm:0.1,tenant=acme
//
// A clause without a mode key defaults to horse; a clause without a
// tenant key is untenanted. Function names must be unique across
// clauses. Errors quote the offending clause and its byte offset in
// the spec.
func ParseWorkloads(s string) ([]Workload, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("%w: empty workload list", ErrBadSpec)
	}
	var out []Workload
	seen := map[string]bool{}
	for _, cl := range splitOffsets(s, ';') {
		clause := strings.TrimSpace(cl.text)
		if clause == "" {
			continue
		}
		at := cl.offset + leadingSpace(cl.text)
		fn, rest, ok := strings.Cut(clause, "=")
		fn = strings.TrimSpace(fn)
		if !ok || fn == "" {
			return nil, fmt.Errorf("%w: clause %q at offset %d: want function=kind:key=value,...", ErrBadSpec, clause, at)
		}
		if seen[fn] {
			return nil, fmt.Errorf("%w: duplicate function %q at offset %d", ErrBadSpec, fn, at)
		}
		seen[fn] = true
		specStr, mix, tenantName, err := splitWorkloadKeys(rest)
		if err != nil {
			return nil, fmt.Errorf("%w (in clause %q at offset %d)", err, clause, at)
		}
		spec, err := ParseSpec(specStr)
		if err != nil {
			return nil, fmt.Errorf("%w (in clause %q at offset %d)", err, clause, at)
		}
		out = append(out, Workload{Function: fn, Spec: spec, Mix: mix, Tenant: tenantName})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: empty workload list", ErrBadSpec)
	}
	return out, nil
}

// splitWorkloadKeys strips the trailing ",mode=..." and ",tenant=..."
// keys off a spec clause and parses them (defaults: horse, untenanted).
func splitWorkloadKeys(s string) (specStr string, mix ModeMix, tenantName string, err error) {
	mix = SingleMode(faas.ModeHorse)
	parts := strings.Split(s, ",")
	kept := parts[:0]
	for _, p := range parts {
		if value, ok := strings.CutPrefix(strings.TrimSpace(p), "mode="); ok {
			mix, err = parseModeMix(value)
			if err != nil {
				return "", nil, "", err
			}
			continue
		}
		if value, ok := strings.CutPrefix(strings.TrimSpace(p), "tenant="); ok {
			if !tenant.ValidName(value) {
				return "", nil, "", fmt.Errorf("%w: invalid tenant name %q", ErrBadSpec, value)
			}
			tenantName = value
			continue
		}
		kept = append(kept, p)
	}
	return strings.Join(kept, ","), mix, tenantName, nil
}

// offsetPart is one separator-delimited piece of a spec and its byte
// offset, so parse errors can point at the offending clause's position.
type offsetPart struct {
	text   string
	offset int
}

// splitOffsets splits s on sep, tracking each piece's byte offset.
func splitOffsets(s string, sep byte) []offsetPart {
	var out []offsetPart
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == sep {
			out = append(out, offsetPart{text: s[start:i], offset: start})
			start = i + 1
		}
	}
	return out
}

// leadingSpace returns how many leading space bytes TrimSpace would
// drop, so reported offsets point at the clause's first real byte.
func leadingSpace(s string) int {
	return len(s) - len(strings.TrimLeft(s, " \t"))
}

// Arrival is one generated trigger instant.
type Arrival struct {
	// Seq is the global firing order (0-based), the tiebreak identity of
	// same-instant arrivals.
	Seq uint64
	// At is the arrival instant on the virtual clock.
	At simtime.Time
	// Function is the target function's registry name.
	Function string
	// Mode is the start mode drawn from the workload's mix.
	Mode faas.StartMode
	// Workload is the index of the workload that fired it, in the
	// generator's workload order.
	Workload int
}

// Generator produces open-loop arrivals for a set of workloads.
type Generator struct {
	seed      int64
	workloads []Workload
	metrics   *telemetry.Registry
}

// Options configures a Generator beyond its seed and workloads.
type Options struct {
	// Metrics, when non-nil, receives loadgen_arrivals_total{function}.
	Metrics *telemetry.Registry
}

// New builds a generator. The workload list must be non-empty and every
// workload must validate.
func New(seed int64, workloads []Workload, opts Options) (*Generator, error) {
	if len(workloads) == 0 {
		return nil, ErrNoWorkloads
	}
	for i, w := range workloads {
		if w.Function == "" {
			return nil, fmt.Errorf("%w: workload %d has no function", ErrBadSpec, i)
		}
		if w.Tenant != "" && !tenant.ValidName(w.Tenant) {
			return nil, fmt.Errorf("%w: workload %q has invalid tenant name %q", ErrBadSpec, w.Function, w.Tenant)
		}
		if err := w.Spec.validate(); err != nil {
			return nil, fmt.Errorf("%w (workload %q)", err, w.Function)
		}
		if err := w.Mix.validate(); err != nil {
			return nil, fmt.Errorf("%w (workload %q)", err, w.Function)
		}
	}
	ws := make([]Workload, len(workloads))
	copy(ws, workloads)
	return &Generator{seed: seed, workloads: ws, metrics: opts.Metrics}, nil
}

// source is the per-workload generation state: its own PRNG stream,
// its ON/OFF phase bookkeeping, and its next drawn arrival instant.
type source struct {
	w     Workload
	index int // w's position in the generator's workloads
	rng   *rand.Rand
	// at is the source's next arrival instant and drawn the stream-wide
	// order in which it was drawn; a source whose instant reaches the
	// horizon is exhausted.
	at    simtime.Time
	drawn uint64
	// arrivals is the workload's arrival counter, prebound by Stream so
	// the per-arrival path skips the registry lookup (nil when the
	// generator has no metrics sink).
	arrivals *telemetry.Counter
}

// newSource derives the workload's PRNG stream from the generator seed
// and the workload's position, mirroring faultinject's per-site
// streams: checking one workload never perturbs another's sequence.
func newSource(seed int64, index int, w Workload) *source {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d:%s", index, w.Function)
	return &source{
		w:     w,
		index: index,
		rng:   rand.New(rand.NewSource(seed ^ int64(h.Sum64()))),
	}
}

// next returns the workload's next arrival instant strictly after from.
func (s *source) next(from simtime.Time) simtime.Time {
	gap := expGap(s.rng, s.w.Spec.Rate)
	switch s.w.Spec.Kind {
	case KindOnOff:
		at := from.Add(gap)
		period := s.w.Spec.On + s.w.Spec.Off
		// Walk forward over OFF windows: an arrival drawn past the ON
		// window's end restarts the draw at the next ON window.
		for {
			offset := simtime.Duration(int64(at) % int64(period))
			if offset < s.w.Spec.On {
				return at
			}
			windowStart := at.Add(period - offset)
			at = windowStart.Add(expGap(s.rng, s.w.Spec.Rate))
		}
	default:
		return from.Add(gap)
	}
}

// expGap draws one exponential inter-arrival gap (mean 1/rate seconds),
// floored at 1 ns so virtual time always advances between a workload's
// arrivals.
func expGap(rng *rand.Rand, rate float64) simtime.Duration {
	gap := simtime.Duration(rng.ExpFloat64() / rate * float64(simtime.Second))
	if gap < simtime.Nanosecond {
		gap = simtime.Nanosecond
	}
	return gap
}

// Stream is a pull iterator over a generator's arrivals in firing
// order: ascending instant, and same-instant arrivals in the order
// their instants were drawn. Each source keeps exactly one drawn
// instant ahead; pulling an arrival draws its mode and then the
// source's next instant from the same PRNG stream. A Stream is not
// safe for concurrent use.
type Stream struct {
	srcs    []*source
	horizon simtime.Time
	draws   uint64
	seq     uint64
}

// Stream starts the open-loop arrival processes at start, generating
// arrivals strictly before horizon. Every stream replays the same
// arrivals for the same seed and workloads, numbering them from 0.
func (g *Generator) Stream(start, horizon simtime.Time) (*Stream, error) {
	if horizon <= start {
		return nil, fmt.Errorf("loadgen: horizon %v not after start %v", horizon, start)
	}
	s := &Stream{srcs: make([]*source, len(g.workloads)), horizon: horizon}
	for i, w := range g.workloads {
		src := newSource(g.seed, i, w)
		src.arrivals = g.metrics.Counter("loadgen_arrivals_total", "function", w.Function)
		s.srcs[i] = src
		s.draw(src, start)
	}
	return s, nil
}

// draw advances src to its next instant after from.
func (s *Stream) draw(src *source, from simtime.Time) {
	src.at = src.next(from)
	src.drawn = s.draws
	s.draws++
}

// Next returns the next arrival if its instant is at or before until;
// ok is false when the next arrival lies beyond until or the stream is
// exhausted. Open loop: the source's next instant is drawn from this
// arrival's, regardless of how long downstream work takes.
func (s *Stream) Next(until simtime.Time) (a Arrival, ok bool) {
	var src *source
	for _, cand := range s.srcs {
		if cand.at < s.horizon && (src == nil || cand.at < src.at || (cand.at == src.at && cand.drawn < src.drawn)) {
			src = cand
		}
	}
	if src == nil || src.at > until {
		return Arrival{}, false
	}
	a = Arrival{
		Seq:      s.seq,
		At:       src.at,
		Function: src.w.Function,
		Mode:     src.w.Mix.draw(src.rng.Float64()),
		Workload: src.index,
	}
	s.seq++
	src.arrivals.Inc()
	s.draw(src, a.At)
	return a, true
}

// Collect streams every arrival before the horizon from the epoch and
// returns them in firing order — the convenience path for tests and
// the CLI's arrival preview.
func (g *Generator) Collect(horizon simtime.Duration) ([]Arrival, error) {
	end := simtime.Time(0).Add(horizon)
	s, err := g.Stream(0, end)
	if err != nil {
		return nil, err
	}
	var out []Arrival
	for a, ok := s.Next(end); ok; a, ok = s.Next(end) {
		out = append(out, a)
	}
	return out, nil
}
