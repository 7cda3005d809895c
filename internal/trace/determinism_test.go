package trace

import (
	"bytes"
	"testing"
)

// TestSynthesizeDeterministicBytes is the global-rand regression behind
// horselint's sharedrand site rule: the same
// seed must produce byte-identical generated traces. All randomness in
// Synthesize flows from one *rand.Rand built from SynthConfig.Seed, so
// any global-source draw sneaking in breaks this immediately.
func TestSynthesizeDeterministicBytes(t *testing.T) {
	cfg := SynthConfig{Functions: 12, Minutes: 20, MeanPerMinute: 9, Seed: 42}
	var a, b bytes.Buffer
	if err := WriteCSV(&a, Synthesize(cfg)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b, Synthesize(cfg)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed produced different trace bytes")
	}

	// A different seed must not reproduce the same trace (the test would
	// otherwise pass trivially on a constant generator).
	var c bytes.Buffer
	cfg.Seed = 43
	if err := WriteCSV(&c, Synthesize(cfg)); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds produced identical trace bytes")
	}
}

// Arrival-instant determinism is covered by TestArrivalsDeterministic
// in trace_test.go; this file owns the byte-level trace guarantee.
