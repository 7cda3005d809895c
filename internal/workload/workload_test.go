package workload

import (
	"encoding/json"
	"errors"
	"testing"
	"testing/quick"
)

func TestCategoryString(t *testing.T) {
	tests := []struct {
		give Category
		want string
		ull  bool
	}{
		{give: Category1, want: "category1(<=20us)", ull: true},
		{give: Category2, want: "category2(<=1us)", ull: true},
		{give: Category3, want: "category3(100s-ns)", ull: true},
		{give: CategoryLong, want: "long-running", ull: false},
		{give: Category(9), want: "category(9)", ull: false},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
		if got := tt.give.ULL(); got != tt.ull {
			t.Errorf("ULL(%v) = %v, want %v", tt.give, got, tt.ull)
		}
	}
}

func TestVirtualDurationsMatchTable1(t *testing.T) {
	if d := DefaultFirewall().VirtualDuration(); d.Nanoseconds() != 17_000 {
		t.Fatalf("firewall = %v, want 17µs", d)
	}
	if d := DefaultNAT().VirtualDuration(); d.Nanoseconds() != 1_500 {
		t.Fatalf("nat = %v, want 1.5µs", d)
	}
	if d := NewScan(1).VirtualDuration(); d.Nanoseconds() != 700 {
		t.Fatalf("scan = %v, want 700ns", d)
	}
}

func TestFirewallDecide(t *testing.T) {
	fw := DefaultFirewall()
	tests := []struct {
		name string
		req  FirewallRequest
		want bool
	}{
		{name: "allow-any-port-prefix", req: FirewallRequest{SrcIP: "10.1.2.3", DstPort: 1234}, want: true},
		{name: "allow-matching-port", req: FirewallRequest{SrcIP: "192.168.5.5", DstPort: 443}, want: true},
		{name: "deny-wrong-port", req: FirewallRequest{SrcIP: "192.168.5.5", DstPort: 80}, want: false},
		{name: "deny-unknown-source", req: FirewallRequest{SrcIP: "8.8.8.8", DstPort: 443}, want: false},
		// 203.0.113.255 is inside 203.0.113.0/24 and port 80 matches.
		{name: "allow-edge-of-prefix", req: FirewallRequest{SrcIP: "203.0.113.255", DstPort: 80}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dec, err := fw.Decide(tt.req)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Allow != tt.want {
				t.Fatalf("Decide(%+v) = %v, want %v (%s)", tt.req, dec.Allow, tt.want, dec.Reason)
			}
		})
	}
}

func TestFirewallBadInputs(t *testing.T) {
	fw := DefaultFirewall()
	if _, err := fw.Decide(FirewallRequest{SrcIP: "not-an-ip"}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("err = %v, want ErrBadPayload", err)
	}
	if _, err := fw.Invoke([]byte("{bad json")); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("err = %v, want ErrBadPayload", err)
	}
	if _, err := NewFirewall(nil); err == nil {
		t.Fatal("empty rule set accepted")
	}
	if _, err := NewFirewall([]FirewallRule{{SrcCIDR: "garbage"}}); err == nil {
		t.Fatal("bad CIDR accepted")
	}
}

// TestFirewallVerdictsMatchMarshal: each rule's verdict, encoded once
// by NewFirewall, is json.Marshal of what Decide returns, for IPv4 and
// IPv6 prefixes of every length, including one longer than the verdict
// buffer's per-rule share.
func TestFirewallVerdictsMatchMarshal(t *testing.T) {
	fw, err := NewFirewall([]FirewallRule{
		{SrcCIDR: "2001:db8::/32", DstPort: 53},
		{SrcCIDR: "ffff:ffff:ffff:ffff:ffff:ffff:ffff:fffe/128"},
		{SrcCIDR: "::ffff:10.0.0.0/104"},
		{SrcCIDR: "10.1.2.3/8"},
		{SrcCIDR: "0.0.0.0/0", DstPort: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []FirewallRequest{
		{SrcIP: "2001:db8::1", DstPort: 53},
		{SrcIP: "ffff:ffff:ffff:ffff:ffff:ffff:ffff:fffe"},
		{SrcIP: "::ffff:10.9.9.9"},
		{SrcIP: "10.200.0.1", DstPort: 1},
		{SrcIP: "8.8.8.8", DstPort: 7},
		{SrcIP: "8.8.8.8", DstPort: 8},
	} {
		dec, err := fw.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := json.Marshal(req)
		out, err := fw.Invoke(payload)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(dec); string(out) != string(want) {
			t.Errorf("Invoke(%+v) = %s, want %s", req, out, want)
		}
	}
	for i, r := range fw.rules {
		if want := "matched " + r.prefix.String(); r.reason != want {
			t.Errorf("rule %d reason = %q, want %q", i, r.reason, want)
		}
	}
}

func TestFirewallInvokeRoundTrip(t *testing.T) {
	fw := DefaultFirewall()
	payload, _ := json.Marshal(FirewallRequest{SrcIP: "10.0.0.1", DstPort: 22})
	out, err := fw.Invoke(payload)
	if err != nil {
		t.Fatal(err)
	}
	var dec FirewallDecision
	if err := json.Unmarshal(out, &dec); err != nil {
		t.Fatal(err)
	}
	if !dec.Allow {
		t.Fatalf("decision = %+v, want allow", dec)
	}
}

func TestNATTranslate(t *testing.T) {
	nat := DefaultNAT()
	got := nat.Translate(NATPacket{DstIP: "203.0.113.10", DstPort: 443})
	if !got.Translated || got.DstIP != "10.0.1.11" || got.DstPort != 8443 {
		t.Fatalf("Translate = %+v", got)
	}
	miss := nat.Translate(NATPacket{DstIP: "1.2.3.4", DstPort: 443})
	if miss.Translated || miss.DstIP != "1.2.3.4" {
		t.Fatalf("miss = %+v", miss)
	}
}

func TestNATValidation(t *testing.T) {
	if _, err := NewNAT(nil); err == nil {
		t.Fatal("empty NAT accepted")
	}
	if _, err := NewNAT([]NATRule{{MatchIP: "", RewriteIP: "10.0.0.1"}}); err == nil {
		t.Fatal("empty match IP accepted")
	}
	nat := DefaultNAT()
	if _, err := nat.Invoke([]byte("nope")); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("err = %v", err)
	}
}

func TestScanDeterministicAndCorrect(t *testing.T) {
	s1 := NewScan(42)
	s2 := NewScan(42)
	a := s1.IndexesAbove(5000)
	b := s2.IndexesAbove(5000)
	if len(a) != len(b) {
		t.Fatal("same seed produced different arrays")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different indexes")
		}
	}
	// Exhaustive oracle on the underlying data.
	all := s1.IndexesAbove(-1)
	if len(all) != ScanArraySize {
		t.Fatalf("threshold -1 found %d of %d", len(all), ScanArraySize)
	}
	none := s1.IndexesAbove(10000)
	if len(none) != 0 {
		t.Fatalf("threshold max found %d", len(none))
	}
}

func TestScanInvoke(t *testing.T) {
	s := NewScan(7)
	payload, _ := json.Marshal(ScanRequest{Threshold: 9000})
	out, err := s.Invoke(payload)
	if err != nil {
		t.Fatal(err)
	}
	var res ScanResult
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if res.Count != len(res.Indexes) {
		t.Fatalf("count %d != indexes %d", res.Count, len(res.Indexes))
	}
	if _, err := s.Invoke([]byte("x")); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("bad payload err = %v", err)
	}
}

// Property: scan results are ascending, in range, and complete (every
// returned index exceeds the threshold; thresholds are monotone).
func TestScanProperty(t *testing.T) {
	s := NewScan(99)
	f := func(t1Raw, t2Raw uint16) bool {
		t1, t2 := int(t1Raw)%10000, int(t2Raw)%10000
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		lo := s.IndexesAbove(t1)
		hi := s.IndexesAbove(t2)
		if len(hi) > len(lo) {
			return false // higher threshold cannot match more
		}
		prev := -1
		for _, idx := range lo {
			if idx <= prev || idx < 0 || idx >= ScanArraySize {
				return false
			}
			prev = idx
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestThumbnailDeterministic(t *testing.T) {
	th := NewThumbnail()
	req := ThumbnailRequest{Object: "photos/cat.jpg", Width: 256, Height: 256, Edge: 32}
	a, err := th.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := th.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != b.Checksum {
		t.Fatal("same input produced different thumbnails")
	}
	other, err := th.Generate(ThumbnailRequest{Object: "photos/dog.jpg", Width: 256, Height: 256, Edge: 32})
	if err != nil {
		t.Fatal(err)
	}
	if other.Checksum == a.Checksum {
		t.Fatal("different objects produced identical thumbnails")
	}
	if a.Width != 32 || a.Height != 32 {
		t.Fatalf("thumbnail dims = %dx%d", a.Width, a.Height)
	}
}

func TestThumbnailValidation(t *testing.T) {
	th := NewThumbnail()
	bad := []ThumbnailRequest{
		{Object: "x", Width: 0, Height: 10, Edge: 1},
		{Object: "x", Width: 10, Height: 10, Edge: 0},
		{Object: "x", Width: 10, Height: 10, Edge: 100},
		{Object: "x", Width: 1 << 14, Height: 1 << 14, Edge: 8},
	}
	for i, req := range bad {
		if _, err := th.Generate(req); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("case %d: err = %v, want ErrBadPayload", i, err)
		}
	}
	if _, err := th.Invoke([]byte("{")); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("invoke err = %v", err)
	}
}

func TestThumbnailInvoke(t *testing.T) {
	th := NewThumbnail()
	payload, _ := json.Marshal(ThumbnailRequest{Object: "o", Width: 64, Height: 64, Edge: 16})
	out, err := th.Invoke(payload)
	if err != nil {
		t.Fatal(err)
	}
	var res ThumbnailResult
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if res.Checksum == 0 {
		t.Fatal("zero checksum")
	}
}

func TestSpin(t *testing.T) {
	sp := &Spin{Demand: 500}
	if sp.VirtualDuration() != 500 {
		t.Fatalf("VirtualDuration = %v", sp.VirtualDuration())
	}
	out, err := sp.Invoke(nil)
	if err != nil {
		t.Fatal(err)
	}
	var res map[string]int
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	// π(2000) = 303.
	if res["primes"] != 303 {
		t.Fatalf("primes = %d, want 303", res["primes"])
	}
}
