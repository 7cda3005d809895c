package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/horse-faas/horse/internal/faas"
	"github.com/horse-faas/horse/internal/simtime"
)

// TestArrivalOrderPinned pins the exact arrival sequence — seq,
// instant, function, mode — for a mix dense enough that the 1 ns gap
// floor makes workloads collide on the same instant, plus one ON/OFF
// workload. Same-instant arrivals fire in the order their instants were
// drawn; a change to the merge order, the per-workload PRNG draws or
// the ON/OFF walk moves the digest.
func TestArrivalOrderPinned(t *testing.T) {
	ws := []Workload{
		{Function: "scan", Spec: Spec{Kind: KindPoisson, Rate: 1e8}, Mix: SingleMode(faas.ModeHorse)},
		{Function: "nat", Spec: Spec{Kind: KindPoisson, Rate: 3e8}, Mix: ModeMix{{Mode: faas.ModeHorse, Weight: 0.7}, {Mode: faas.ModeWarm, Weight: 0.3}}},
		{Function: "firewall", Spec: Spec{Kind: KindPoisson, Rate: 5e8}, Mix: ModeMix{{Mode: faas.ModeCold, Weight: 1}, {Mode: faas.ModeRestore, Weight: 1}}},
		{Function: "burst", Spec: Spec{Kind: KindOnOff, Rate: 1e9, On: simtime.Microsecond, Off: 3 * simtime.Microsecond}, Mix: SingleMode(faas.ModeWarm)},
	}
	want := map[int64]string{
		1:  "e18170a551f65a24753a5cdd079d3ba5ce552df85752730e502f8459782ccc42",
		42: "b51f316aa77c2b72b6b1c6fe3c116794467629ac1ef20fd86e5718557231472d",
		7:  "6535a5ae7dc01b8eef9dd369fead3d0d7d26b9102d7385d2a66b4c91a35f38ee",
	}
	for _, seed := range []int64{1, 7, 42} {
		g, err := New(seed, ws, Options{})
		if err != nil {
			t.Fatal(err)
		}
		arrivals, err := g.Collect(20 * simtime.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		ties := 0
		for i, a := range arrivals {
			fmt.Fprintf(h, "%d %d %s %d\n", a.Seq, int64(a.At), a.Function, int(a.Mode))
			if i > 0 && a.At == arrivals[i-1].At && a.Function != arrivals[i-1].Function {
				ties++
			}
		}
		if ties == 0 {
			t.Fatalf("seed %d: no same-instant ties across workloads in %d arrivals", seed, len(arrivals))
		}
		got := hex.EncodeToString(h.Sum(nil))
		t.Logf("seed %d: %d arrivals, %d ties, sha256 %s", seed, len(arrivals), ties, got)
		if got != want[seed] {
			t.Errorf("seed %d: arrival digest %s, want %s", seed, got, want[seed])
		}
	}
}
