package workload

import (
	"encoding/json"
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

type compiledRule struct {
	prefix netip.Prefix
	port   uint16
}

var _ Function = (*Firewall)(nil)

// NewFirewall compiles the allow list. At least one rule is required.
func NewFirewall(rules []FirewallRule) (*Firewall, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("workload: firewall needs at least one rule")
	}
	f := &Firewall{rules: make([]compiledRule, 0, len(rules))}
	for _, r := range rules {
		p, err := netip.ParsePrefix(r.SrcCIDR)
		if err != nil {
			return nil, fmt.Errorf("workload: firewall rule %q: %w", r.SrcCIDR, err)
		}
		f.rules = append(f.rules, compiledRule{prefix: p, port: r.DstPort})
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
	addr, err := netip.ParseAddr(req.SrcIP)
	if err != nil {
		return FirewallDecision{}, fmt.Errorf("%w: src ip %q: %v", ErrBadPayload, req.SrcIP, err)
	}
	for _, r := range f.rules {
		if r.prefix.Contains(addr) && (r.port == 0 || r.port == req.DstPort) {
			return FirewallDecision{
				Allow:  true,
				Reason: fmt.Sprintf("matched %s", r.prefix),
			}, nil
		}
	}
	return FirewallDecision{Allow: false, Reason: "no matching allow rule"}, nil
}

// Invoke implements Function: JSON FirewallRequest in, FirewallDecision
// out.
func (f *Firewall) Invoke(payload []byte) ([]byte, error) {
	req, err := decodeRequest(payload, parseFirewallRequest)
	if err != nil {
		return nil, err
	}
	dec, err := f.Decide(req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(dec)
}
