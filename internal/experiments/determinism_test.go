package experiments

import (
	"testing"

	"github.com/horse-faas/horse/internal/simtime"
)

// smallColocation keeps the determinism regression fast: a short window
// and few cores still exercise the trace synthesis, the service-time
// draws, and both policy replays end to end.
func smallColocation(seed int64) ColocationConfig {
	return ColocationConfig{
		ULLVCPUs: 4,
		CPUs:     4,
		Window:   4 * simtime.Second,
		Seed:     seed,
	}
}

// TestColocationSameSeedSamePercentiles is the global-rand regression
// (horselint's sharedrand site rule) for
// §5.4 (complementing TestColocationDeterministic in
// experiments_test.go with preemption counts and a different-seed
// guard): every random draw flows from seeded *rand.Rand instances,
// never the global source, so same seed ⇒ same latency distribution.
func TestColocationSameSeedSamePercentiles(t *testing.T) {
	first, err := RunColocation(smallColocation(11))
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunColocation(smallColocation(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		name string
		a, b ColocationResult
	}{
		{"vanilla", first.Vanilla, second.Vanilla},
		{"horse", first.Horse, second.Horse},
	} {
		if pair.a.Latency != pair.b.Latency {
			t.Errorf("%s latency summary differs across same-seed runs:\n%+v\n%+v",
				pair.name, pair.a.Latency, pair.b.Latency)
		}
		if pair.a.Preemptions != pair.b.Preemptions {
			t.Errorf("%s preemptions differ: %d vs %d", pair.name, pair.a.Preemptions, pair.b.Preemptions)
		}
	}

	// A different seed must shift the distribution (guards against the
	// test passing on a degenerate constant workload).
	other, err := RunColocation(smallColocation(12))
	if err != nil {
		t.Fatal(err)
	}
	if other.Vanilla.Latency == first.Vanilla.Latency {
		t.Error("different seeds produced identical vanilla latency summaries")
	}
}
