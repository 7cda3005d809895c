package workload

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"strconv"

	"github.com/horse-faas/horse/internal/simtime"
)

// ScanArraySize is the fixed array length of the Category-3 workload
// ("given an array composed of 3000 integers", paper §2).
const ScanArraySize = 3000

// ScanRequest carries the threshold parameter passed at trigger time.
type ScanRequest struct {
	Threshold int `json:"threshold"`
}

// ScanResult lists the indexes of elements larger than the threshold —
// the kind of operation used during image transformations (paper §2).
type ScanResult struct {
	Indexes []int `json:"indexes"`
	Count   int   `json:"count"`
}

// Scan is the Category-3 workload: it retrieves the indexes of all array
// elements larger than an integer parameter.
type Scan struct {
	data []int
}

var (
	_ Function = (*Scan)(nil)
	_ Appender = (*Scan)(nil)
)

// NewScan builds the workload over a deterministic pseudo-random array
// derived from seed, with values in [0, 10000).
func NewScan(seed int64) *Scan {
	rng := rand.New(rand.NewSource(seed))
	data := make([]int, ScanArraySize)
	for i := range data {
		data[i] = rng.Intn(10000)
	}
	return &Scan{data: data}
}

// Name implements Function.
func (s *Scan) Name() string { return "scan" }

// Category implements Function.
func (s *Scan) Category() Category { return Category3 }

// VirtualDuration implements Function.
func (s *Scan) VirtualDuration() simtime.Duration { return ScanDuration }

// IndexesAbove returns the indexes of elements strictly larger than
// threshold, in ascending index order. The result is sized for the
// worst case up front: one allocation instead of a dozen append-grows
// when most of the array clears the threshold.
func (s *Scan) IndexesAbove(threshold int) []int {
	out := make([]int, 0, len(s.data))
	for i, v := range s.data {
		if v > threshold {
			out = append(out, i)
		}
	}
	return out
}

// scanIndexWord holds the text ",i" of every index i in [0,
// ScanArraySize) in the low bytes of one little-endian word, so Invoke
// copies it with a single 8-byte store; scanIndexLen is its length.
// Every such text is at most 5 bytes (",2999"). The tables are built once
// per process so NewScan (the simulator's set-up) does not pay for them.
var (
	scanIndexWord [ScanArraySize]uint64
	scanIndexLen  [ScanArraySize]uint8
)

func init() {
	for i := range scanIndexWord {
		var text [8]byte
		n := len(strconv.AppendInt(append(text[:0], ','), int64(i), 10))
		scanIndexWord[i] = binary.LittleEndian.Uint64(text[:])
		scanIndexLen[i] = uint8(n)
	}
}

// b2i is 1 for true and 0 for false; the compiler turns it into a flag
// set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Invoke implements Function: JSON ScanRequest in, ScanResult out, in a
// fresh buffer of exactly the result's length.
func (s *Scan) Invoke(payload []byte) ([]byte, error) {
	return s.AppendInvoke(nil, payload)
}

// AppendInvoke implements Appender: it appends the ScanResult Invoke
// would return to dst. With room in dst the result is written in place;
// without, dst is copied into a new buffer of exactly len(dst) plus the
// result's length. Nothing past the result is written.
//
// The result is encoded by hand, byte-identical to json.Marshal of the
// ScanResult IndexesAbove would give, in two passes. The first compares
// every element and compacts the matching indexes into a stack array
// without a branch per element: each index is written at the next free
// slot, which only a match advances. The encoded size follows from the
// sorted index list alone, since the text of index i is 5 bytes minus one
// for each of 10, 100 and 1000 that i is below. The second pass walks only
// the matches and stores each one's text as one 8-byte word.
func (s *Scan) AppendInvoke(dst, payload []byte) ([]byte, error) {
	req, err := decodeRequest(payload, parseScanRequest)
	if err != nil {
		return dst, err
	}
	var idx [ScanArraySize]uint16
	n, threshold := 0, req.Threshold
	for i, v := range s.data {
		idx[n] = uint16(i)
		n += b2i(v > threshold)
	}
	match := idx[:n]

	const head, mid = `{"indexes":[`, `],"count":`
	var countBuf [20]byte
	count := strconv.AppendInt(countBuf[:0], int64(n), 10)
	size := 5 * n
	for _, width := range [...]uint16{10, 100, 1000} {
		below, _ := slices.BinarySearch(match, width)
		size -= below
	}
	if n > 0 {
		size-- // the first index has no leading comma
	}
	// Each word store writes 8 bytes where the text needs at most 5. The
	// spill is overwritten by the next store or, after the last match, by
	// the trailer (mid, count and '}', at least 12 bytes), so the result
	// needs no slack past its end.
	need := len(head) + size + len(mid) + len(count) + 1
	var all []byte
	if cap(dst)-len(dst) >= need {
		all = dst[:len(dst)+need]
	} else {
		all = make([]byte, len(dst)+need)
		copy(all, dst)
	}
	out := all[len(dst):]
	w := copy(out, head)
	if n > 0 {
		first := match[0]
		binary.LittleEndian.PutUint64(out[w:], scanIndexWord[first]>>8)
		w += int(scanIndexLen[first]) - 1
		for _, i := range match[1:] {
			binary.LittleEndian.PutUint64(out[w:], scanIndexWord[i])
			w += int(scanIndexLen[i])
		}
	}
	w += copy(out[w:], mid)
	w += copy(out[w:], count)
	out[w] = '}'
	return all, nil
}
