package workload

import (
	"fmt"
	"net/netip"

	"github.com/horse-faas/horse/internal/simtime"
)

// FirewallRequest is the request header a Firewall invocation inspects.
type FirewallRequest struct {
	SrcIP   string `json:"srcIp"`
	DstPort uint16 `json:"dstPort"`
}

// FirewallDecision is the verdict returned by a Firewall invocation.
type FirewallDecision struct {
	Allow  bool   `json:"allow"`
	Reason string `json:"reason"`
}

// FirewallRule allows traffic from a source prefix to a destination port
// (port 0 matches every port).
type FirewallRule struct {
	// SrcCIDR is the allowed source prefix, e.g. "10.0.0.0/8".
	SrcCIDR string
	// DstPort is the allowed destination port; 0 allows all ports.
	DstPort uint16
}

// Firewall is the Category-1 workload: a stateless firewall that decides
// whether a request may pass by querying a static allow list (paper §2).
type Firewall struct {
	rules []compiledRule
}

// compiledRule is one parsed allow rule with its verdict: the reason
// Decide returns when the rule matches and that verdict's JSON
// encoding, byte-identical to json.Marshal's.
type compiledRule struct {
	prefix  netip.Prefix
	port    uint16
	reason  string
	verdict string
}

// Verdict encodings. A reason is written verbatim: the deny reason is
// plain, and so is every allow reason, since a prefix's text is digits,
// hex letters, '.', ':' and '/'. FuzzFirewallInvoke pins both against
// json.Marshal.
const (
	denyReason  = "no matching allow rule"
	allowHead   = `{"allow":true,"reason":"`
	verdictTail = `"}`
	denyVerdict = `{"allow":false,"reason":"` + denyReason + verdictTail
)

var (
	_ Function = (*Firewall)(nil)
	_ Appender = (*Firewall)(nil)
)

// NewFirewall compiles the allow list. At least one rule is required.
func NewFirewall(rules []FirewallRule) (*Firewall, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("workload: firewall needs at least one rule")
	}
	f := &Firewall{rules: make([]compiledRule, len(rules))}
	// The verdicts are written back to back into one buffer, ends[i]
	// closing rule i's, and share one string. 64 bytes hold an IPv4
	// rule's verdict.
	buf := make([]byte, 0, 64*len(rules))
	ends := make([]int, len(rules))
	for i, r := range rules {
		p, err := netip.ParsePrefix(r.SrcCIDR)
		if err != nil {
			return nil, fmt.Errorf("workload: firewall rule %q: %w", r.SrcCIDR, err)
		}
		f.rules[i] = compiledRule{prefix: p, port: r.DstPort}
		buf = append(buf, allowHead+"matched "...)
		buf = append(p.AppendTo(buf), verdictTail...)
		ends[i] = len(buf)
	}
	verdicts, start := string(buf), 0
	for i, end := range ends {
		v := verdicts[start:end]
		f.rules[i].verdict, f.rules[i].reason = v, v[len(allowHead):len(v)-len(verdictTail)]
		start = end
	}
	return f, nil
}

// DefaultFirewall returns a firewall with a representative NFV allow list.
func DefaultFirewall() *Firewall {
	f, err := NewFirewall([]FirewallRule{
		{SrcCIDR: "10.0.0.0/8", DstPort: 0},
		{SrcCIDR: "192.168.0.0/16", DstPort: 443},
		{SrcCIDR: "172.16.0.0/12", DstPort: 8080},
		{SrcCIDR: "203.0.113.0/24", DstPort: 80},
	})
	if err != nil {
		panic(err) // static rules cannot fail to compile
	}
	return f
}

// Name implements Function.
func (f *Firewall) Name() string { return "firewall" }

// Category implements Function.
func (f *Firewall) Category() Category { return Category1 }

// VirtualDuration implements Function.
func (f *Firewall) VirtualDuration() simtime.Duration { return FirewallDuration }

// Decide applies the allow list to a parsed request.
func (f *Firewall) Decide(req FirewallRequest) (FirewallDecision, error) {
	r, err := f.match(req)
	if err != nil {
		return FirewallDecision{}, err
	}
	if r == nil {
		return FirewallDecision{Allow: false, Reason: denyReason}, nil
	}
	return FirewallDecision{Allow: true, Reason: r.reason}, nil
}

// match returns the first rule that allows req, or nil when none does.
func (f *Firewall) match(req FirewallRequest) (*compiledRule, error) {
	addr, err := netip.ParseAddr(req.SrcIP)
	if err != nil {
		return nil, fmt.Errorf("%w: src ip %q: %v", ErrBadPayload, req.SrcIP, err)
	}
	for i := range f.rules {
		r := &f.rules[i]
		if r.prefix.Contains(addr) && (r.port == 0 || r.port == req.DstPort) {
			return r, nil
		}
	}
	return nil, nil
}

// Invoke implements Function: JSON FirewallRequest in, FirewallDecision
// out, in a fresh buffer.
func (f *Firewall) Invoke(payload []byte) ([]byte, error) {
	return f.AppendInvoke(nil, payload)
}

// AppendInvoke implements Appender: it appends the FirewallDecision
// Invoke would return to dst, in place when dst has room and otherwise
// in a copy of exactly the needed length. Nothing past the result is
// written. A verdict depends only on the rule that matched, so NewFirewall
// encodes each one once.
func (f *Firewall) AppendInvoke(dst, payload []byte) ([]byte, error) {
	req, err := decodeRequest(payload, parseFirewallRequest)
	if err != nil {
		return dst, err
	}
	r, err := f.match(req)
	if err != nil {
		return dst, err
	}
	verdict := denyVerdict
	if r != nil {
		verdict = r.verdict
	}
	return append(grow(dst, len(verdict)), verdict...), nil
}
