package workload

import (
	"fmt"
	"strconv"

	"github.com/horse-faas/horse/internal/simtime"
)

// NATPacket is the request header a NAT invocation rewrites.
type NATPacket struct {
	DstIP   string `json:"dstIp"`
	DstPort uint16 `json:"dstPort"`
}

// NATRule maps one public endpoint to a private one.
type NATRule struct {
	// MatchIP and MatchPort select the packets to rewrite.
	MatchIP   string
	MatchPort uint16
	// RewriteIP and RewritePort are the translated destination.
	RewriteIP   string
	RewritePort uint16
}

// NATResult is the translated header plus whether a rule matched.
type NATResult struct {
	DstIP      string `json:"dstIp"`
	DstPort    uint16 `json:"dstPort"`
	Translated bool   `json:"translated"`
}

type natKey struct {
	ip   string
	port uint16
}

// NAT is the Category-2 workload: it changes a request header based on
// pre-registered routing rules (paper §2). Both the firewall and the NAT
// are common NFV use cases.
type NAT struct {
	table map[natKey]NATRule
}

var (
	_ Function = (*NAT)(nil)
	_ Appender = (*NAT)(nil)
)

// NewNAT indexes the routing rules. At least one rule is required.
func NewNAT(rules []NATRule) (*NAT, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("workload: NAT needs at least one rule")
	}
	n := &NAT{table: make(map[natKey]NATRule, len(rules))}
	for _, r := range rules {
		if r.MatchIP == "" || r.RewriteIP == "" {
			return nil, fmt.Errorf("workload: NAT rule with empty address: %+v", r)
		}
		n.table[natKey{ip: r.MatchIP, port: r.MatchPort}] = r
	}
	return n, nil
}

// DefaultNAT returns a NAT with a representative rule set.
func DefaultNAT() *NAT {
	n, err := NewNAT([]NATRule{
		{MatchIP: "203.0.113.10", MatchPort: 80, RewriteIP: "10.0.1.10", RewritePort: 8080},
		{MatchIP: "203.0.113.10", MatchPort: 443, RewriteIP: "10.0.1.11", RewritePort: 8443},
		{MatchIP: "203.0.113.20", MatchPort: 53, RewriteIP: "10.0.2.5", RewritePort: 5353},
	})
	if err != nil {
		panic(err) // static rules cannot fail to compile
	}
	return n
}

// Name implements Function.
func (n *NAT) Name() string { return "nat" }

// Category implements Function.
func (n *NAT) Category() Category { return Category2 }

// VirtualDuration implements Function.
func (n *NAT) VirtualDuration() simtime.Duration { return NATDuration }

// Translate rewrites a parsed packet header.
func (n *NAT) Translate(pkt NATPacket) NATResult {
	if r, ok := n.table[natKey{ip: pkt.DstIP, port: pkt.DstPort}]; ok {
		return NATResult{DstIP: r.RewriteIP, DstPort: r.RewritePort, Translated: true}
	}
	return NATResult{DstIP: pkt.DstIP, DstPort: pkt.DstPort, Translated: false}
}

// Invoke implements Function: JSON NATPacket in, NATResult out, in a
// fresh buffer.
func (n *NAT) Invoke(payload []byte) ([]byte, error) {
	return n.AppendInvoke(nil, payload)
}

// AppendInvoke implements Appender: it appends the NATResult Invoke
// would return to dst, in place when dst has room and otherwise in a
// copy of exactly the needed length. Nothing past the result is
// written.
//
// The result is encoded by hand, byte-identical to json.Marshal of the
// NATResult, when its address needs no JSON escaping; an untranslated
// address echoed from the request may, and such a result goes to
// json.Marshal (FuzzNATInvoke pins both).
func (n *NAT) AppendInvoke(dst, payload []byte) ([]byte, error) {
	pkt, err := decodeRequest(payload, parseNATPacket)
	if err != nil {
		return dst, err
	}
	res := n.Translate(pkt)
	if !jsonPlain(res.DstIP) {
		b := mustMarshal(res)
		return append(grow(dst, len(b)), b...), nil
	}
	const head, mid, tail = `{"dstIp":"`, `","dstPort":`, `,"translated":`
	var portBuf [5]byte
	port := strconv.AppendUint(portBuf[:0], uint64(res.DstPort), 10)
	translated := "false"
	if res.Translated {
		translated = "true"
	}
	dst = grow(dst, len(head)+len(res.DstIP)+len(mid)+len(port)+len(tail)+len(translated)+1)
	dst = append(dst, head...)
	dst = append(dst, res.DstIP...)
	dst = append(dst, mid...)
	dst = append(dst, port...)
	dst = append(dst, tail...)
	dst = append(dst, translated...)
	return append(dst, '}'), nil
}
