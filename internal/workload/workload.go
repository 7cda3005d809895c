// Package workload implements the functions of the paper's evaluation as
// real, executable Go code.
//
// Section 2 defines three categories of ultra-low-latency workloads by
// execution time — ≤ 20 µs (Category 1, a stateless firewall), ≤ 1 µs
// (Category 2, a NAT header rewriter), and hundreds of ns (Category 3, an
// array index scan) — plus, for §5.4, a long-running thumbnail generator
// from the SEBS suite and sysbench-style CPU hogs for background load.
//
// Each function carries two notions of cost:
//
//   - Invoke executes the real logic on a real payload (used by examples
//     and by the wall-clock micro-benchmarks);
//   - VirtualDuration is the calibrated execution time charged on the
//     simulation clock (Table 1: 17 µs / 1.5 µs / 0.7 µs), so the
//     initialization-percentage experiments reproduce the paper's ratios
//     regardless of host speed.
//
// The uLL bodies decode their requests without reflection when the
// payload is in the exact compact form json.Marshal emits, which every
// caller sends, and hand any other payload to json.Unmarshal, so values,
// case-folding and errors are exactly encoding/json's (decode.go). The
// thumbnail decodes with encoding/json. The uLL results are encoded
// without reflection too, each byte-identical to json.Marshal of the
// typed result (FuzzScanInvoke, FuzzNATInvoke and FuzzFirewallInvoke pin
// this): the scan, whose result lists up to 3000 indexes, writes it from
// precomputed index text; the NAT writes its few fields by hand, and
// hands a result whose address json.Marshal would escape to json.Marshal
// itself; the firewall's verdict depends only on the rule that matched,
// so NewFirewall encodes each verdict once, by hand: a rule's reason is
// its prefix's text, which json.Marshal writes verbatim.
//
// Who owns a result depends on the entry point:
//
//   - Invoke returns a fresh buffer of exactly the result's length, which
//     the caller owns.
//   - AppendInvoke (the optional Appender interface, which all three
//     uLL bodies implement, Invoke being AppendInvoke(nil, …)) appends
//     the result to the caller's buffer, writing in place when it has
//     room and growing it to exactly the needed length when it does
//     not.
//   - A cluster run passes each node's one response buffer to
//     AppendInvoke, so a served invocation's output is overwritten by
//     that node's next trigger; nothing in the run reads it.
//     Cluster.Trigger copies the output out into a fresh, exact-size
//     buffer before it returns.
package workload

import (
	"encoding/json"
	"errors"
	"fmt"

	"github.com/horse-faas/horse/internal/simtime"
)

// Category classifies a function by its execution-time class.
type Category int

// Workload categories from paper §2 plus the long-running class of §5.4.
const (
	// Category1 is ≤ 20 µs (NFV-style firewall).
	Category1 Category = iota + 1
	// Category2 is ≤ 1 µs (NAT header rewrite).
	Category2
	// Category3 is hundreds of nanoseconds (array index scan).
	Category3
	// CategoryLong is a conventional function with ≥ 1 s execution
	// (thumbnail generation).
	CategoryLong
)

// String returns the category's name.
func (c Category) String() string {
	switch c {
	case Category1:
		return "category1(<=20us)"
	case Category2:
		return "category2(<=1us)"
	case Category3:
		return "category3(100s-ns)"
	case CategoryLong:
		return "long-running"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// ULL reports whether the category is ultra-low-latency.
func (c Category) ULL() bool {
	return c == Category1 || c == Category2 || c == Category3
}

// ErrBadPayload reports an invocation payload the function cannot parse.
var ErrBadPayload = errors.New("workload: bad payload")

// Function is one deployable FaaS function.
type Function interface {
	// Name is the function's registry name.
	Name() string
	// Category is its execution-time class.
	Category() Category
	// VirtualDuration is the calibrated execution time on the simulation
	// clock.
	VirtualDuration() simtime.Duration
	// Invoke runs the real function logic.
	Invoke(payload []byte) ([]byte, error)
}

// Appender is implemented by a Function that can encode its result into
// a caller's buffer, as encoding.BinaryAppender stands next to
// encoding.BinaryMarshaler. AppendInvoke appends exactly what Invoke
// would return to dst and returns the extended buffer; it writes nothing
// past the appended result. On error dst is returned unchanged.
type Appender interface {
	AppendInvoke(dst, payload []byte) ([]byte, error)
}

// grow returns dst when it has room for n more bytes and otherwise a
// copy of it in a new buffer of exactly len(dst)+n, so appending n
// bytes to the result neither reallocates nor writes past them.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	out := make([]byte, len(dst), len(dst)+n)
	copy(out, dst)
	return out
}

// jsonPlain reports whether json.Marshal writes s verbatim between its
// quotes: every byte is printable ASCII and none is '"', '\\' or one of
// the HTML characters '<', '>' and '&' it escapes.
func jsonPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// mustMarshal is json.Marshal for a value that cannot fail to encode.
func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Calibrated virtual execution times (Table 1's "Average Execution").
const (
	FirewallDuration  = 17 * simtime.Microsecond
	NATDuration       = simtime.Duration(1.5 * float64(simtime.Microsecond))
	ScanDuration      = 700 * simtime.Nanosecond
	ThumbnailDuration = simtime.Duration(2.8 * float64(simtime.Second))
)
