package workload

import (
	"encoding/json"
	"testing"
)

// TestHotPathAllocFree pins each uLL body's allocations per call to
// its measured count. Every request here is in json.Marshal's compact
// form, so it takes the direct decoder, which allocates nothing for the
// scan and only the address string for the NAT and firewall. Invoke's
// other allocation is its exact-size output buffer, so a result
// encoding that allocates more (as json.Marshal does), or a decode that
// falls back to json.Unmarshal, fails here. Appended into a buffer with
// room (the -append rows, as a cluster node serves them), the scan
// allocates nothing and the NAT and firewall only the address. No
// sync.Pool is on any of these paths, so the counts hold under -race.
func TestHotPathAllocFree(t *testing.T) {
	scanReq, _ := json.Marshal(ScanRequest{Threshold: 5000})
	natReq, _ := json.Marshal(NATPacket{DstIP: "203.0.113.10", DstPort: 80})
	natMiss, _ := json.Marshal(NATPacket{DstIP: "198.51.100.7", DstPort: 80})
	fwReq, _ := json.Marshal(FirewallRequest{SrcIP: "10.0.0.1", DstPort: 443})
	fwDeny, _ := json.Marshal(FirewallRequest{SrcIP: "8.8.8.8", DstPort: 443})
	tests := []struct {
		name    string
		fn      Function
		payload []byte
		budget  float64
		dst     []byte // non-nil: call AppendInvoke into it instead of Invoke
	}{
		{name: "scan", fn: NewScan(1), payload: scanReq, budget: 1},
		{name: "scan-append", fn: NewScan(1), payload: scanReq, budget: 0, dst: make([]byte, 0, 16<<10)},
		{name: "nat-hit", fn: DefaultNAT(), payload: natReq, budget: 2},
		{name: "nat-miss", fn: DefaultNAT(), payload: natMiss, budget: 2},
		{name: "firewall-allow", fn: DefaultFirewall(), payload: fwReq, budget: 2},
		{name: "firewall-deny", fn: DefaultFirewall(), payload: fwDeny, budget: 2},
		{name: "nat-hit-append", fn: DefaultNAT(), payload: natReq, budget: 1, dst: make([]byte, 0, 256)},
		{name: "nat-miss-append", fn: DefaultNAT(), payload: natMiss, budget: 1, dst: make([]byte, 0, 256)},
		{name: "firewall-allow-append", fn: DefaultFirewall(), payload: fwReq, budget: 1, dst: make([]byte, 0, 256)},
		{name: "firewall-deny-append", fn: DefaultFirewall(), payload: fwDeny, budget: 1, dst: make([]byte, 0, 256)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n := testing.AllocsPerRun(100, func() {
				var err error
				if tt.dst != nil {
					_, err = tt.fn.(Appender).AppendInvoke(tt.dst, tt.payload)
				} else {
					_, err = tt.fn.Invoke(tt.payload)
				}
				if err != nil {
					t.Fatal(err)
				}
			})
			if n > tt.budget {
				t.Errorf("%s allocates %v per run, want <= %v", tt.name, n, tt.budget)
			}
		})
	}
}

// BenchmarkAppendInvoke is the NAT and firewall bodies as a cluster
// node serves them: each request appended into the node's one reused
// response buffer.
func BenchmarkAppendInvoke(b *testing.B) {
	for _, bc := range []struct {
		name string
		fn   Appender
		req  any
	}{
		{"nat-hit", DefaultNAT(), NATPacket{DstIP: "203.0.113.10", DstPort: 80}},
		{"nat-miss", DefaultNAT(), NATPacket{DstIP: "198.51.100.7", DstPort: 80}},
		{"firewall-allow", DefaultFirewall(), FirewallRequest{SrcIP: "10.1.2.3", DstPort: 443}},
		{"firewall-deny", DefaultFirewall(), FirewallRequest{SrcIP: "8.8.8.8", DstPort: 443}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			payload, err := json.Marshal(bc.req)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]byte, 0, 256)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out, err = bc.fn.AppendInvoke(out[:0], payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
