package metrics

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/horse-faas/horse/internal/simtime"
)

func seriesOf(vals ...simtime.Duration) *Series {
	s := NewSeries()
	for _, v := range vals {
		s.Record(v)
	}
	return s
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries()
	if _, err := s.Mean(); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("Mean err = %v", err)
	}
	if _, err := s.Min(); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("Min err = %v", err)
	}
	if _, err := s.Max(); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("Max err = %v", err)
	}
	if _, err := s.Percentile(50); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("Percentile err = %v", err)
	}
	if _, err := s.Summarize(); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("Summarize err = %v", err)
	}
}

func TestSeriesBasicStats(t *testing.T) {
	s := seriesOf(10, 20, 30, 40)
	if got, _ := s.Mean(); got != 25 {
		t.Fatalf("Mean = %v, want 25", got)
	}
	if got, _ := s.Min(); got != 10 {
		t.Fatalf("Min = %v, want 10", got)
	}
	if got, _ := s.Max(); got != 40 {
		t.Fatalf("Max = %v, want 40", got)
	}
	if got := s.Sum(); got != 100 {
		t.Fatalf("Sum = %v, want 100", got)
	}
	if got := s.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
}

func TestSeriesPercentileNearestRank(t *testing.T) {
	// 1..100: nearest-rank pX is exactly X.
	s := NewSeries()
	for i := 100; i >= 1; i-- {
		s.Record(simtime.Duration(i))
	}
	tests := []struct {
		p    float64
		want simtime.Duration
	}{
		{p: 50, want: 50},
		{p: 95, want: 95},
		{p: 99, want: 99},
		{p: 100, want: 100},
		{p: 1, want: 1},
		{p: 0.5, want: 1},
	}
	for _, tt := range tests {
		got, err := s.Percentile(tt.p)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Fatalf("P%v = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := s.Percentile(0); err == nil {
		t.Fatal("P0 accepted")
	}
	if _, err := s.Percentile(101); err == nil {
		t.Fatal("P101 accepted")
	}
}

func TestSeriesRecordAfterSortedQuery(t *testing.T) {
	s := seriesOf(5, 1)
	if got, _ := s.Min(); got != 1 {
		t.Fatalf("Min = %v", got)
	}
	s.Record(0) // lands after a fold
	if got, _ := s.Min(); got != 0 {
		t.Fatalf("Min after Record = %v, want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	s := NewSeries()
	for i := 1; i <= 1000; i++ {
		s.Record(simtime.Duration(i))
	}
	sum, err := s.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count != 1000 || sum.Min != 1 || sum.Max != 1000 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.P50 != 500 || sum.P95 != 950 || sum.P99 != 990 {
		t.Fatalf("percentiles = %+v", sum)
	}
}

func TestCI95(t *testing.T) {
	if _, err := CI95(nil); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("err = %v", err)
	}
	one, err := CI95([]float64{42})
	if err != nil || one.Mean != 42 || one.HalfWidth != 0 {
		t.Fatalf("single CI = %+v, %v", one, err)
	}
	// Ten identical values: zero-width interval.
	same := make([]float64, 10)
	for i := range same {
		same[i] = 7
	}
	ci, err := CI95(same)
	if err != nil || ci.Mean != 7 || ci.HalfWidth != 0 {
		t.Fatalf("identical CI = %+v, %v", ci, err)
	}
	if ci.RelativeWidth() != 0 {
		t.Fatalf("RelativeWidth = %v, want 0", ci.RelativeWidth())
	}
	// Known case: n=10, df=9, t=2.262.
	vals := []float64{10, 12, 9, 11, 10, 10, 11, 9, 10, 8}
	ci, err = CI95(vals)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Mean != 10 {
		t.Fatalf("Mean = %v, want 10", ci.Mean)
	}
	if ci.HalfWidth <= 0 || ci.RelativeWidth() > 0.1 {
		t.Fatalf("CI = %+v", ci)
	}
}

func TestCI95ZeroMeanNonzeroSpread(t *testing.T) {
	ci, err := CI95([]float64{-1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ci.RelativeWidth(), 1) {
		t.Fatalf("RelativeWidth = %v, want +Inf", ci.RelativeWidth())
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []simtime.Duration{0, 5, 15, 44, 49, 100, -3} {
		h.Observe(d)
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Overflow() != 1 {
		t.Fatalf("Overflow = %d, want 1 (the 100)", h.Overflow())
	}
	if h.Bucket(0) != 3 { // 0, 5, clamped -3
		t.Fatalf("Bucket(0) = %d, want 3", h.Bucket(0))
	}
	if h.Bucket(1) != 1 || h.Bucket(4) != 2 {
		t.Fatalf("buckets = [%d %d %d %d %d]", h.Bucket(0), h.Bucket(1), h.Bucket(2), h.Bucket(3), h.Bucket(4))
	}
	if h.Bucket(-1) != 0 || h.Bucket(99) != 0 {
		t.Fatal("out-of-range bucket not zero")
	}
	q, err := h.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q != 20 { // 4th of 7 observations falls in bucket 1 → bound 20
		t.Fatalf("Quantile(0.5) = %v, want 20", q)
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 5); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewHistogram(10, 0); err == nil {
		t.Fatal("zero buckets accepted")
	}
	h, _ := NewHistogram(10, 2)
	if _, err := h.Quantile(0.5); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("empty Quantile err = %v", err)
	}
	h.Observe(1)
	if _, err := h.Quantile(0); err == nil {
		t.Fatal("Quantile(0) accepted")
	}
	if _, err := h.Quantile(1.1); err == nil {
		t.Fatal("Quantile(1.1) accepted")
	}
}

// Property: every order statistic of a Series agrees with sorting the
// samples and indexing — Percentile at the nearest rank, RankQuantile at
// the round-half-up rank, Min, Max and Mean. Sizes run past several
// folds, over few-distinct, all-distinct, wide random and run-heavy
// values. Each input is checked halfway, again after Records that follow
// the queries, and again after a Reset and a refill.
func TestPercentileOracleProperty(t *testing.T) {
	f := func(seed int64, size uint16, shape uint8, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%3000
		batch := func() []simtime.Duration {
			out := make([]simtime.Duration, n)
			switch shape % 4 {
			case 0: // few distinct
				for i := range out {
					out[i] = simtime.Duration(rng.Intn(5) * 150)
				}
			case 1: // all distinct
				for i, v := range rng.Perm(n) {
					out[i] = simtime.Duration(v)
				}
			case 2: // wide random
				for i := range out {
					out[i] = simtime.Duration(rng.Intn(1 << 16))
				}
			default: // long runs of equal values
				v := simtime.Duration(0)
				for i := range out {
					if rng.Intn(8) == 0 {
						v = simtime.Duration(rng.Intn(300))
					}
					out[i] = v
				}
			}
			return out
		}
		p := float64(pRaw%100) + 1 // [1,100]
		s := NewSeries()
		var oracle []simtime.Duration
		agrees := func() bool {
			sorted := slices.Clone(oracle)
			slices.Sort(sorted)
			k := len(sorted)
			var sum simtime.Duration
			for _, v := range sorted {
				sum += v
			}
			roundHalfUp := func(q float64) simtime.Duration {
				return sorted[min(max(int(float64(k)*q+0.5), 1), k)-1]
			}
			got, err := s.Percentile(p)
			if err != nil || got != sorted[int(math.Ceil(p/100*float64(k)))-1] {
				return false
			}
			for _, q := range []float64{p / 100, 0.5, 0.95, 0.99, 1} {
				if s.RankQuantile(q) != roundHalfUp(q) {
					return false
				}
			}
			minV, _ := s.Min()
			maxV, _ := s.Max()
			mean, _ := s.Mean()
			return s.Len() == k && minV == sorted[0] && maxV == sorted[k-1] &&
				s.Sum() == sum && mean == simtime.Duration(int64(sum)/int64(k))
		}
		record := func(vals []simtime.Duration) {
			for _, v := range vals {
				s.Record(v)
			}
			oracle = append(oracle, vals...)
		}
		first := batch()
		record(first[:(n+1)/2])
		if !agrees() {
			return false
		}
		record(first[(n+1)/2:])
		if !agrees() {
			return false
		}
		s.Reset()
		oracle = oracle[:0]
		record(batch())
		return agrees()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSeriesMemoryBounded: a million samples over 100 distinct values
// keep the series' buffers at the scale of the distinct values and the
// fold threshold, not of the samples: each of its three buffers holds
// at most twice that many entries.
func TestSeriesMemoryBounded(t *testing.T) {
	s := NewSeries()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		s.Record(simtime.Duration(rng.Intn(100)))
	}
	if s.Len() != 1_000_000 {
		t.Fatalf("Len = %d", s.Len())
	}
	limit := 3 * 2 * (100 + minPending)
	if retained := cap(s.bins) + cap(s.pending) + cap(s.spare); retained > limit {
		t.Fatalf("series retains %d entries for 100 distinct values, want <= %d", retained, limit)
	}
	if got, _ := s.Max(); got != 99 {
		t.Fatalf("Max = %v, want 99", got)
	}
}

// TestHotPathAllocFree pins Record allocation-free once a series has
// seen its distinct values: each fold merges into the spare buffer and
// recycles the old pairs, so no Record grows a buffer again. The loop
// is one measured run, so a single allocation in 64k Records fails it.
func TestHotPathAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]simtime.Duration, 4096)
	for i := range vals {
		vals[i] = simtime.Duration(rng.Intn(1000))
	}
	s := NewSeries()
	recordAll := func() {
		for range 16 {
			for _, v := range vals {
				s.Record(v)
			}
		}
	}
	recordAll()
	if _, err := s.Percentile(99); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1, recordAll); n != 0 {
		t.Errorf("64k Records over seen values allocate %v times, want 0", n)
	}
}

// Property: histogram quantile is an upper bound on the exact quantile.
func TestHistogramQuantileUpperBoundProperty(t *testing.T) {
	f := func(raw []uint8, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		h, err := NewHistogram(4, 64)
		if err != nil {
			return false
		}
		s := NewSeries()
		for _, r := range raw {
			d := simtime.Duration(r)
			h.Observe(d)
			s.Record(d)
		}
		q := 0.01 + 0.99*rng.Float64()
		hq, err := h.Quantile(q)
		if err != nil {
			return false
		}
		exact, err := s.Percentile(q * 100)
		if err != nil {
			return false
		}
		return hq >= exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTQuantileRegimes(t *testing.T) {
	// df in the table, df requiring the next-lower tabulated value, and
	// the large-sample normal approximation.
	mk := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i % 5)
		}
		return out
	}
	small, err := CI95(mk(11)) // df=10, tabulated 2.228
	if err != nil {
		t.Fatal(err)
	}
	mid, err := CI95(mk(13)) // df=12, falls back to df=10's quantile
	if err != nil {
		t.Fatal(err)
	}
	large, err := CI95(mk(100)) // df=99 → 1.96
	if err != nil {
		t.Fatal(err)
	}
	if small.HalfWidth <= 0 || mid.HalfWidth <= 0 || large.HalfWidth <= 0 {
		t.Fatalf("half widths: %v %v %v", small.HalfWidth, mid.HalfWidth, large.HalfWidth)
	}
	// Wider interval for fewer samples (same underlying distribution).
	if !(small.HalfWidth > large.HalfWidth) {
		t.Fatalf("CI did not shrink with samples: %v vs %v", small.HalfWidth, large.HalfWidth)
	}
}

func TestSeriesReset(t *testing.T) {
	s := seriesOf(3, 1, 2)
	if _, err := s.Min(); err != nil { // force a fold
		t.Fatal(err)
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("len after reset = %d", s.Len())
	}
	if _, err := s.Mean(); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("mean after reset: %v", err)
	}
	// The series must be fully usable again, with nothing left to fold.
	s.Record(5)
	s.Record(4)
	if min, err := s.Min(); err != nil || min != 4 {
		t.Fatalf("min after refill = %v, %v", min, err)
	}
}

func TestHistogramShapeAccessors(t *testing.T) {
	h, err := NewHistogram(50*simtime.Nanosecond, 100)
	if err != nil {
		t.Fatal(err)
	}
	if h.BucketWidth() != 50*simtime.Nanosecond || h.NumBuckets() != 100 {
		t.Fatalf("shape = %v x %d", h.BucketWidth(), h.NumBuckets())
	}
}

// TestTQuantilePinned pins the exact fallback behaviour for every df
// regime, in particular the untabulated 11-14 band: each falls back to
// the largest tabulated df below it (df=10's 2.228), which over-covers
// because t-quantiles decrease monotonically in df.
func TestTQuantilePinned(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706}, // tabulated
		{5, 2.571},  // tabulated
		{10, 2.228}, // tabulated
		{11, 2.228}, // untabulated: falls back to df=10
		{12, 2.228},
		{13, 2.228},
		{14, 2.228},
		{15, 2.131}, // tabulated
		{16, 2.131}, // untabulated: falls back to df=15
		{19, 2.131},
		{20, 2.086}, // tabulated
		{24, 2.086}, // untabulated: falls back to df=20
		{26, 2.060}, // untabulated: falls back to df=25
		{30, 2.042}, // tabulated
		{31, 1.96},  // normal approximation
		{1000, 1.96},
	}
	for _, tc := range cases {
		if got := tQuantile(tc.df); got != tc.want {
			t.Errorf("tQuantile(%d) = %v, want %v", tc.df, got, tc.want)
		}
	}
	// The conservative property itself: every fallback value must be at
	// least the true quantile of the next tabulated df above (approx by
	// the normal bound 1.96 for df <= 30).
	for df := 1; df <= 30; df++ {
		if got := tQuantile(df); got < 1.96 {
			t.Errorf("tQuantile(%d) = %v below the normal bound", df, got)
		}
	}
}

// TestRankQuantile pins the round-half-up rank convention of the report
// quantile, including where it parts from Percentile's nearest rank:
// n=11, q=0.95 picks the 10th sample, not the 11th.
func TestRankQuantile(t *testing.T) {
	ranks := func(n int) *Series {
		s := NewSeries()
		for i := n; i >= 1; i-- {
			s.Record(simtime.Duration(i))
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want simtime.Duration // the 1-based rank picked
	}{
		{1, 0.50, 1},
		{1, 0.99, 1},
		{2, 0.50, 1},
		{4, 0.50, 2},
		{10, 0.95, 10},
		{11, 0.50, 6},
		{11, 0.95, 10},
		{11, 0.99, 11},
		{100, 0.99, 99},
		{3, 0.01, 1}, // clamped below
		{3, 1.00, 3},
	}
	for _, c := range cases {
		if got := ranks(c.n).RankQuantile(c.q); got != c.want {
			t.Errorf("RankQuantile(n=%d, q=%v) = rank %d, want %d", c.n, c.q, got, c.want)
		}
	}
	s := ranks(11)
	nearest, err := s.Percentile(95)
	if err != nil {
		t.Fatal(err)
	}
	if nearest != 11 || s.RankQuantile(0.95) != 10 {
		t.Errorf("n=11 q=0.95: Percentile = %d, RankQuantile = %d; want 11 and 10", nearest, s.RankQuantile(0.95))
	}
	if got := NewSeries().RankQuantile(0.5); got != 0 {
		t.Errorf("empty RankQuantile = %v, want 0", got)
	}
}
