package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
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

var _ Function = (*Scan)(nil)

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

// scanIndexText holds ",i" for every index i in [0, ScanArraySize), back
// to back; index i's text is scanIndexText[scanIndexOff[i]:scanIndexOff[i+1]].
// It is built once per process so NewScan (the simulator's set-up) does
// not pay for it.
var (
	scanIndexText []byte
	scanIndexOff  [ScanArraySize + 1]int
)

func init() {
	for i := 0; i < ScanArraySize; i++ {
		scanIndexText = append(scanIndexText, ',')
		scanIndexText = strconv.AppendInt(scanIndexText, int64(i), 10)
		scanIndexOff[i+1] = len(scanIndexText)
	}
}

// Invoke implements Function: JSON ScanRequest in, ScanResult out. The
// result is encoded by hand, byte-identical to json.Marshal of the
// ScanResult IndexesAbove would give: a first pass over the array counts
// the matches and their encoded length, a second copies each match's
// text into one buffer of exactly that size.
func (s *Scan) Invoke(payload []byte) ([]byte, error) {
	var req ScanRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	const head, mid = `{"indexes":[`, `],"count":`
	n, size := 0, 0
	for i, v := range s.data {
		if v > req.Threshold {
			n++
			size += scanIndexOff[i+1] - scanIndexOff[i]
		}
	}
	var countBuf [20]byte
	count := strconv.AppendInt(countBuf[:0], int64(n), 10)
	if n > 0 {
		size-- // the first index has no leading comma
	}
	out := make([]byte, 0, len(head)+size+len(mid)+len(count)+1)
	out = append(out, head...)
	skip := 1
	for i, v := range s.data {
		if v > req.Threshold {
			out = append(out, scanIndexText[scanIndexOff[i]+skip:scanIndexOff[i+1]]...)
			skip = 0
		}
	}
	out = append(out, mid...)
	out = append(out, count...)
	return append(out, '}'), nil
}
