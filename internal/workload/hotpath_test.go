package workload

import (
	"encoding/json"
	"testing"
)

// raceEnabled is set by race_test.go under -race, where sync.Pool
// (which json.Marshal uses in the NAT and firewall bodies) drops pooled
// items at random, so their allocation counts are not reproducible.
var raceEnabled bool

// TestHotPathAllocFree pins each uLL body's allocations per Invoke to
// its measured count. Every request here is in json.Marshal's compact
// form, so it takes the direct decoder, which allocates nothing for the
// scan and only the address string for the NAT and firewall. The scan's
// one allocation is its exact-size output buffer, so a result encoding
// that allocates more (as json.Marshal does), or a decode that falls
// back to json.Unmarshal, fails here; appended into a buffer with room
// (scan-append, as a cluster node serves it), the scan allocates
// nothing. Both hold under -race too, since no sync.Pool is on that
// path. The NAT and firewall encode with json.Marshal and are pinned
// outside -race only.
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
		pooled  bool   // json.Marshal's sync.Pool is on the path
		dst     []byte // non-nil: call AppendInvoke into it instead of Invoke
	}{
		{name: "scan", fn: NewScan(1), payload: scanReq, budget: 1},
		{name: "scan-append", fn: NewScan(1), payload: scanReq, budget: 0, dst: make([]byte, 0, 16<<10)},
		{name: "nat-hit", fn: DefaultNAT(), payload: natReq, budget: 3, pooled: true},
		{name: "nat-miss", fn: DefaultNAT(), payload: natMiss, budget: 3, pooled: true},
		{name: "firewall-allow", fn: DefaultFirewall(), payload: fwReq, budget: 7, pooled: true},
		{name: "firewall-deny", fn: DefaultFirewall(), payload: fwDeny, budget: 3, pooled: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.pooled && raceEnabled {
				t.Skip("allocation counts through sync.Pool are not reproducible under -race")
			}
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
