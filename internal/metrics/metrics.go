// Package metrics provides the statistics used by every experiment
// harness: exact percentiles and means over recorded samples, and
// fixed-width histograms for streaming summaries.
package metrics

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/horse-faas/horse/internal/simtime"
)

// ErrNoSamples is returned by statistics that need at least one sample.
var ErrNoSamples = errors.New("metrics: no samples recorded")

// Series collects duration samples and answers order statistics exactly.
// Simulated latencies repeat (a million HORSE trigger latencies take
// under a thousand distinct values), so it keeps each distinct value
// once with its count: Record appends to a pending buffer, and once that
// outgrows the folded pairs, fold sorts it and merges it into them.
// A sample equal to the last one the previous fold took in is counted
// in its pair directly, so a run of one value, such as a constant-cost
// trace stage's durations, sorts nothing. Memory is bounded by the
// distinct values, not the samples.
type Series struct {
	bins    []bin              // folded: ascending distinct values with their counts
	pending []simtime.Duration // recorded since the last fold, in arrival order
	spare   []bin              // fold's output buffer, swapped with bins
	hot     int                // index in bins of the last sample the last fold took in
	n       int
	sum     simtime.Duration
}

// bin is one distinct value and how many samples had it.
type bin struct {
	v simtime.Duration
	n int
}

// minPending is the pending length below which Record does not fold, so
// a series of few distinct values never sorts a handful at a time.
const minPending = 256

// NewSeries returns an empty series.
func NewSeries() *Series { return &Series{} }

// Record adds one sample.
func (s *Series) Record(d simtime.Duration) {
	s.n++
	s.sum += d
	if s.hot < len(s.bins) && s.bins[s.hot].v == d {
		s.bins[s.hot].n++
		return
	}
	if len(s.pending) >= max(minPending, len(s.bins)) {
		s.fold()
	}
	s.pending = append(s.pending, d)
}

// fold sorts the pending samples and merges them into the folded pairs.
// The merge writes into the spare buffer, grown at most once to fit, and
// the old pairs become the next spare, so a series that has seen its
// distinct values folds without allocating.
func (s *Series) fold() {
	last := s.pending[len(s.pending)-1]
	slices.Sort(s.pending)
	fresh := 1
	for i := 1; i < len(s.pending); i++ {
		if s.pending[i] != s.pending[i-1] {
			fresh++
		}
	}
	out, old := slices.Grow(s.spare[:0], len(s.bins)+fresh), s.bins
	for _, v := range s.pending {
		for len(old) > 0 && old[0].v <= v {
			out, old = append(out, old[0]), old[1:]
		}
		if k := len(out) - 1; k >= 0 && out[k].v == v {
			out[k].n++
		} else {
			out = append(out, bin{v: v, n: 1})
		}
	}
	s.bins, s.spare, s.pending = append(out, old...), s.bins[:0], s.pending[:0]
	s.hot, _ = slices.BinarySearchFunc(s.bins, last, func(b bin, v simtime.Duration) int { return cmp.Compare(b.v, v) })
}

// at returns the sample of 1-based rank (1 <= rank <= Len) in ascending
// order. Every order statistic is this one walk.
func (s *Series) at(rank int) simtime.Duration {
	if len(s.pending) > 0 {
		s.fold()
	}
	i := 0
	for ; rank > s.bins[i].n; i++ {
		rank -= s.bins[i].n
	}
	return s.bins[i].v
}

// Len returns the number of samples.
func (s *Series) Len() int { return s.n }

// Reset discards every sample while keeping the allocated buffers, so a
// periodically scraped series (telemetry's per-window summaries) can be
// drained without reallocating.
func (s *Series) Reset() {
	s.bins, s.pending = s.bins[:0], s.pending[:0]
	s.n, s.sum = 0, 0
}

// Sum returns the total of all samples.
func (s *Series) Sum() simtime.Duration { return s.sum }

// Mean returns the arithmetic mean.
func (s *Series) Mean() (simtime.Duration, error) {
	if s.n == 0 {
		return 0, ErrNoSamples
	}
	return simtime.Duration(int64(s.sum) / int64(s.n)), nil
}

// Max returns the largest sample.
func (s *Series) Max() (simtime.Duration, error) {
	if s.n == 0 {
		return 0, ErrNoSamples
	}
	return s.at(s.n), nil
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method, the convention of the tail-latency literature the
// paper cites.
func (s *Series) Percentile(p float64) (simtime.Duration, error) {
	if s.n == 0 {
		return 0, ErrNoSamples
	}
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("metrics: percentile %v out of (0,100]", p)
	}
	return s.at(max(int(math.Ceil(p/100*float64(s.n))), 1)), nil
}

// RankQuantile returns the sample at the round-half-up rank of q,
// int(q·n + 0.5), clamped to [1, n]; an empty series reads 0. This is
// not the nearest-rank method (rank ⌈q·n⌉) and differs from Percentile
// whenever q·n has a fractional part below one half: for n = 11 and
// q = 0.95 it returns the 10th sample, Percentile(95) the 11th.
// RankQuantile(1) is the largest sample. The cluster and trigger-trace
// reports use it.
func (s *Series) RankQuantile(q float64) simtime.Duration {
	if s.n == 0 {
		return 0
	}
	return s.at(min(max(int(float64(s.n)*q+0.5), 1), s.n))
}

// Summary is a one-shot digest of a series.
type Summary struct {
	Count int
	Mean  simtime.Duration
	Min   simtime.Duration
	Max   simtime.Duration
	P50   simtime.Duration
	P95   simtime.Duration
	P99   simtime.Duration
}

// Summarize digests the series.
func (s *Series) Summarize() (Summary, error) {
	mean, err := s.Mean()
	if err != nil {
		return Summary{}, err
	}
	p50, _ := s.Percentile(50)
	p95, _ := s.Percentile(95)
	p99, _ := s.Percentile(99)
	return Summary{Count: s.n, Mean: mean, Min: s.at(1), Max: s.at(s.n), P50: p50, P95: p95, P99: p99}, nil
}

// Histogram is a fixed-width bucket histogram over durations, used for
// streaming displays in the CLI tools.
type Histogram struct {
	bucketWidth simtime.Duration
	counts      []uint64
	overflow    uint64
	total       uint64
}

// NewHistogram builds a histogram with the given bucket width and count.
func NewHistogram(bucketWidth simtime.Duration, buckets int) (*Histogram, error) {
	if bucketWidth <= 0 || buckets <= 0 {
		return nil, fmt.Errorf("metrics: invalid histogram shape width=%v buckets=%d", bucketWidth, buckets)
	}
	return &Histogram{
		bucketWidth: bucketWidth,
		counts:      make([]uint64, buckets),
	}, nil
}

// Observe records one duration.
func (h *Histogram) Observe(d simtime.Duration) {
	h.total++
	if d < 0 {
		d = 0
	}
	idx := int(d / h.bucketWidth)
	if idx >= len(h.counts) {
		h.overflow++
		return
	}
	h.counts[idx]++
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// BucketWidth returns the fixed bucket width.
func (h *Histogram) BucketWidth() simtime.Duration { return h.bucketWidth }

// NumBuckets returns the bucket count (excluding the overflow bucket).
func (h *Histogram) NumBuckets() int { return len(h.counts) }

// Overflow returns observations beyond the last bucket.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Bucket returns the count of bucket i.
func (h *Histogram) Bucket(i int) uint64 {
	if i < 0 || i >= len(h.counts) {
		return 0
	}
	return h.counts[i]
}

// Quantile returns an upper bound for the q-th quantile (0 < q <= 1) from
// the bucket boundaries.
func (h *Histogram) Quantile(q float64) (simtime.Duration, error) {
	if h.total == 0 {
		return 0, ErrNoSamples
	}
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("metrics: quantile %v out of (0,1]", q)
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return simtime.Duration(i+1) * h.bucketWidth, nil
		}
	}
	return simtime.Duration(len(h.counts)) * h.bucketWidth, nil
}
