package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// scanOver returns a Scan whose array is 1 at the given indexes and 0
// elsewhere, so threshold 0 matches exactly those indexes.
func scanOver(match ...int) *Scan {
	data := make([]int, ScanArraySize)
	for _, i := range match {
		data[i] = 1
	}
	return &Scan{data: data}
}

// TestScanInvokeEdges pins the encoder at the edges a seeded array
// reaches only by chance: no match, all 3000, the first and last index,
// and matches on either side of each change in an index's text width
// (1, 2, 3 and 4 digits), where the per-index length and the writes near
// the end of the buffer change. Each output must be exactly json.Marshal
// of the reference result, with no spare capacity.
func TestScanInvokeEdges(t *testing.T) {
	all := make([]int, ScanArraySize)
	for i := range all {
		all[i] = i
	}
	tests := []struct {
		name  string
		match []int
	}{
		{name: "none"},
		{name: "first-only", match: []int{0}},
		{name: "last-only", match: []int{ScanArraySize - 1}},
		{name: "all", match: all},
		{name: "straddle-9-10", match: []int{9, 10}},
		{name: "straddle-99-100", match: []int{99, 100}},
		{name: "straddle-999-1000", match: []int{999, 1000}},
		{name: "straddle-every-width", match: []int{9, 10, 99, 100, 999, 1000}},
		{name: "only-9", match: []int{9}},
		{name: "only-10", match: []int{10}},
		{name: "only-99", match: []int{99}},
		{name: "only-100", match: []int{100}},
		{name: "only-999", match: []int{999}},
		{name: "only-1000", match: []int{1000}},
	}
	payload, err := json.Marshal(ScanRequest{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := scanOver(tt.match...)
			out, err := s.Invoke(payload)
			if err != nil {
				t.Fatal(err)
			}
			idx := s.IndexesAbove(0)
			if len(idx) != len(tt.match) {
				t.Fatalf("reference found %d matches, want %d", len(idx), len(tt.match))
			}
			assertMarshalled(t, out, ScanResult{Indexes: idx, Count: len(idx)})
			if len(out) != cap(out) {
				t.Fatalf("invoke output has len %d, cap %d; want an exact-size buffer", len(out), cap(out))
			}
		})
	}
}

// TestScanAppendInvoke pins AppendInvoke's buffer contract: the prefix
// already in dst is kept, the appended bytes are exactly Invoke's, and
// a dst with room is written in place without touching any byte of its
// spare capacity past the result. A dst without room grows to a new
// buffer of exactly the prefix plus the result (len == cap), leaving the
// caller's buffer as it was. A bad payload returns dst unchanged.
func TestScanAppendInvoke(t *testing.T) {
	const guard = 0xA5
	s := NewScan(42)
	for _, threshold := range []int{-1, 5000, 10000} {
		payload, err := json.Marshal(ScanRequest{Threshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Invoke(payload)
		if err != nil {
			t.Fatal(err)
		}
		tests := []struct {
			name   string
			prefix string
			spare  int  // room past the prefix, relative to len(want)
			fits   bool // dst has room for the result
		}{
			{name: "nil", spare: -1 << 20},
			{name: "empty-exact", spare: 0, fits: true},
			{name: "empty-roomy", spare: 64, fits: true},
			{name: "prefix-exact", prefix: "HTTP/1.1 200\r\n", spare: 0, fits: true},
			{name: "prefix-roomy", prefix: "HTTP/1.1 200\r\n", spare: 100, fits: true},
			{name: "prefix-one-short", prefix: "HTTP/1.1 200\r\n", spare: -1},
			{name: "prefix-no-room", prefix: "HTTP/1.1 200\r\n", spare: -len(want)},
		}
		for _, tt := range tests {
			t.Run(fmt.Sprintf("threshold=%d/%s", threshold, tt.name), func(t *testing.T) {
				var dst []byte
				if room := len(want) + tt.spare; room >= 0 {
					dst = make([]byte, len(tt.prefix), len(tt.prefix)+room)
					copy(dst, tt.prefix)
					spare := dst[len(dst):cap(dst)]
					for i := range spare {
						spare[i] = guard
					}
				}
				before := append([]byte(nil), dst[:cap(dst)]...)
				got, err := s.AppendInvoke(dst, payload)
				if err != nil {
					t.Fatal(err)
				}
				if string(got[:len(tt.prefix)]) != tt.prefix {
					t.Fatalf("prefix clobbered: got %q, want %q", got[:len(tt.prefix)], tt.prefix)
				}
				if !bytes.Equal(got[len(tt.prefix):], want) {
					t.Fatalf("appended bytes differ from Invoke:\n got %q\nwant %q", got[len(tt.prefix):], want)
				}
				if inPlace := cap(dst) > 0 && &got[0] == &dst[:1][0]; inPlace != tt.fits {
					t.Fatalf("wrote in place = %v, want %v", inPlace, tt.fits)
				}
				if tt.fits {
					for i, b := range got[len(got):cap(got)] {
						if b != guard {
							t.Fatalf("spare byte %d past the result was written (%#x)", i, b)
						}
					}
					return
				}
				if len(got) != cap(got) {
					t.Fatalf("grown buffer has len %d, cap %d; want an exact-size buffer", len(got), cap(got))
				}
				if !bytes.Equal(dst[:cap(dst)], before) {
					t.Fatal("a dst without room was written")
				}
			})
		}
	}
	dst := []byte("keep")
	got, err := s.AppendInvoke(dst, []byte("{"))
	if !errors.Is(err, ErrBadPayload) {
		t.Fatalf("bad payload: err %v, want ErrBadPayload", err)
	}
	if string(got) != "keep" {
		t.Fatalf("bad payload: got %q, want dst unchanged", got)
	}
}

// TestScanInvokeConcurrent invokes one shared Scan from several
// goroutines at once, as a sharded cluster run does (RegisterEverywhere
// hands every node the same instance). Each output must equal
// json.Marshal of its IndexesAbove reference, computed before the
// goroutines start; under -race this also fails if Invoke starts sharing
// scratch state on the Scan.
func TestScanInvokeConcurrent(t *testing.T) {
	s := NewScan(42)
	thresholds := []int{-1, 0, 1000, 2500, 5000, 7500, 9990, 10000}
	payloads := make([][]byte, len(thresholds))
	want := make([][]byte, len(thresholds))
	for g, th := range thresholds {
		var err error
		if payloads[g], err = json.Marshal(ScanRequest{Threshold: th}); err != nil {
			t.Fatal(err)
		}
		idx := s.IndexesAbove(th)
		if want[g], err = json.Marshal(ScanResult{Indexes: idx, Count: len(idx)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := range thresholds {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				out, err := s.Invoke(payloads[g])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(out, want[g]) {
					t.Errorf("threshold %d, repeat %d: concurrent output differs from json.Marshal of IndexesAbove", thresholds[g], rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var scanSink []byte

// BenchmarkScanInvoke is the scan body as a benchmark trigger runs it:
// the array from seed 42 and threshold 5000, about half the elements
// matching.
func BenchmarkScanInvoke(b *testing.B) {
	s := NewScan(42)
	payload, err := json.Marshal(ScanRequest{Threshold: 5000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scanSink, err = s.Invoke(payload); err != nil {
			b.Fatal(err)
		}
	}
}
