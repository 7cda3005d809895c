package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/horse-faas/horse/internal/metrics"
	"github.com/horse-faas/horse/internal/simtime"
)

// Counter is a monotonically increasing instrument. A nil Counter (from a
// nil Registry) is inert.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//horselint:hotpath
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
//
//horselint:hotpath
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instrument. A nil Gauge is inert.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
//
//horselint:hotpath
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a duration histogram instrument: a cumulative fixed-width
// metrics.Histogram plus a per-scrape window series whose exact summary
// is drained on every Snapshot. A nil Histogram is inert.
type Histogram struct {
	mu     sync.Mutex
	hist   *metrics.Histogram
	window *metrics.Series
	sum    simtime.Duration
}

// Observe records one duration.
func (h *Histogram) Observe(d simtime.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.hist.Observe(d)
	h.window.Record(d)
	h.sum += d
}

// HistogramSnapshot is the exported state of one histogram instrument.
// Quantiles are bucket-boundary upper bounds over the cumulative
// histogram; the Window fields summarize only the observations since the
// previous snapshot (exactly, via the drained window series).
type HistogramSnapshot struct {
	Count         uint64   `json:"count"`
	SumNanos      int64    `json:"sum_ns"`
	BucketWidthNs int64    `json:"bucket_width_ns"`
	Buckets       []uint64 `json:"buckets"`
	Overflow      uint64   `json:"overflow"`
	P50Nanos      int64    `json:"p50_ns"`
	P95Nanos      int64    `json:"p95_ns"`
	P99Nanos      int64    `json:"p99_ns"`
	WindowCount   int      `json:"window_count"`
	WindowMeanNs  int64    `json:"window_mean_ns"`
	WindowMaxNs   int64    `json:"window_max_ns"`
}

// snapshot drains the window series and exports the cumulative state.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := HistogramSnapshot{
		Count:         h.hist.Total(),
		SumNanos:      h.sum.Nanoseconds(),
		BucketWidthNs: h.hist.BucketWidth().Nanoseconds(),
		Overflow:      h.hist.Overflow(),
	}
	out.Buckets = make([]uint64, h.hist.NumBuckets())
	for i := range out.Buckets {
		out.Buckets[i] = h.hist.Bucket(i)
	}
	if q, err := h.hist.Quantile(0.50); err == nil {
		out.P50Nanos = q.Nanoseconds()
	}
	if q, err := h.hist.Quantile(0.95); err == nil {
		out.P95Nanos = q.Nanoseconds()
	}
	if q, err := h.hist.Quantile(0.99); err == nil {
		out.P99Nanos = q.Nanoseconds()
	}
	out.WindowCount = h.window.Len()
	if mean, err := h.window.Mean(); err == nil {
		out.WindowMeanNs = mean.Nanoseconds()
	}
	if max, err := h.window.Max(); err == nil {
		out.WindowMaxNs = max.Nanoseconds()
	}
	h.window.Reset()
	return out
}

// Default histogram shape for duration instruments: 50 ns buckets out to
// 5 µs cover the full Figure 2/3 range (a 36-vCPU vanilla resume is
// ≈1.15 µs; HORSE stays at ≈150 ns).
const (
	DefaultHistogramWidth   = 50 * simtime.Nanosecond
	DefaultHistogramBuckets = 100
)

// Snapshot is a point-in-time export of every instrument in a Registry.
// Map keys are full instrument names including labels, e.g.
// `faas_triggers_total{mode="horse"}`.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Registry is a concurrent registry of named instruments. Instruments are
// created on first use and live for the registry's lifetime. A nil
// *Registry is a valid no-op sink: every lookup returns a nil instrument
// whose methods do nothing.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// InstrumentName composes a Prometheus-style instrument name from a
// family and alternating label key/value pairs:
// InstrumentName("x_total", "mode", "horse") → `x_total{mode="horse"}`.
func InstrumentName(family string, labels ...string) string {
	if len(labels) == 0 {
		return family
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Family returns the instrument family of a full name (the part before
// the label braces).
func Family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Counter returns (creating if needed) the counter for family+labels.
func (r *Registry) Counter(family string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	name := InstrumentName(family, labels...)
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge for family+labels.
func (r *Registry) Gauge(family string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	name := InstrumentName(family, labels...)
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the duration histogram for
// family+labels, with the default 50 ns × 100 bucket shape.
func (r *Registry) Histogram(family string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	name := InstrumentName(family, labels...)
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	// The default shape is valid, so NewHistogram cannot fail here.
	mh, _ := metrics.NewHistogram(DefaultHistogramWidth, DefaultHistogramBuckets)
	h = &Histogram{hist: mh, window: metrics.NewSeries()}
	r.hists[name] = h
	return h
}

// Snapshot exports every instrument. Histogram windows are drained as a
// side effect (the scrape cycle); counters and gauges are read atomically.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()
	for k, v := range counters {
		snap.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		snap.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		snap.Histograms[k] = v.snapshot()
	}
	return snap
}
