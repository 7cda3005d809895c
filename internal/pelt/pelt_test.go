package pelt

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestUpdate(t *testing.T) {
	if got := Update(10, 0.5, 3); got != 8 {
		t.Fatalf("Update = %v, want 8", got)
	}
}

func TestCoalesceMatchesIterSmall(t *testing.T) {
	tests := []struct {
		name  string
		alpha float64
		beta  float64
		n     int
		x     float64
	}{
		{name: "n1", alpha: 0.9, beta: 100, n: 1, x: 50},
		{name: "n2", alpha: 0.9, beta: 100, n: 2, x: 50},
		{name: "n36", alpha: DefaultAlpha, beta: DefaultBeta, n: 36, x: 2048},
		{name: "alpha1", alpha: 1, beta: 7, n: 5, x: 3},
		{name: "zero-beta", alpha: 0.5, beta: 0, n: 10, x: 1000},
		{name: "negative-x", alpha: 0.8, beta: 2, n: 4, x: -10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := Coalesce(tt.alpha, tt.beta, tt.n)
			if err != nil {
				t.Fatal(err)
			}
			if c.N != tt.n {
				t.Fatalf("N = %d, want %d", c.N, tt.n)
			}
			got := c.Apply(tt.x)
			want := IterUpdate(tt.x, tt.alpha, tt.beta, tt.n)
			if diff := math.Abs(got - want); diff > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("Apply = %v, iterated = %v (diff %v)", got, want, diff)
			}
		})
	}
}

func TestCoalesceRejectsBadInputs(t *testing.T) {
	tests := []struct {
		name  string
		alpha float64
		beta  float64
		n     int
	}{
		{name: "n0", alpha: 0.5, beta: 1, n: 0},
		{name: "negative-n", alpha: 0.5, beta: 1, n: -3},
		{name: "alpha0", alpha: 0, beta: 1, n: 1},
		{name: "alpha-negative", alpha: -0.5, beta: 1, n: 1},
		{name: "alpha>1", alpha: 1.5, beta: 1, n: 1},
		{name: "alphaNaN", alpha: math.NaN(), beta: 1, n: 1},
		{name: "betaNaN", alpha: 0.5, beta: math.NaN(), n: 1},
		{name: "betaInf", alpha: 0.5, beta: math.Inf(1), n: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Coalesce(tt.alpha, tt.beta, tt.n); !errors.Is(err, ErrBadCoalesce) {
				t.Fatalf("err = %v, want ErrBadCoalesce", err)
			}
		})
	}
}

// Property (the §4.2 identity): for any valid α ∈ (0,1], any finite β and
// x, and any n in the sandbox vCPU range, the coalesced update equals the
// n-fold iterated update to relative precision.
func TestCoalesceIdentityProperty(t *testing.T) {
	f := func(aRaw, bRaw, xRaw uint16, nRaw uint8) bool {
		alpha := 0.01 + 0.99*float64(aRaw)/65535.0 // (0.01, 1.0]
		beta := float64(bRaw) - 32768              // [-32768, 32767]
		x := float64(xRaw)
		n := int(nRaw%64) + 1 // [1, 64] — covers and exceeds 36 vCPUs
		c, err := Coalesce(alpha, beta, n)
		if err != nil {
			return false
		}
		got := c.Apply(x)
		want := IterUpdate(x, alpha, beta, n)
		scale := math.Max(1, math.Abs(want))
		return math.Abs(got-want) <= 1e-9*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRunqueueLoadDefaults(t *testing.T) {
	r := NewRunqueueLoad()
	r.PlaceEntity()
	if got := r.Load(); got != DefaultBeta {
		t.Fatalf("Load after one placement = %v, want DefaultBeta %v", got, DefaultBeta)
	}
	r.PlaceEntity()
	if got, want := r.Load(), DefaultAlpha*DefaultBeta+DefaultBeta; got != want {
		t.Fatalf("Load after two placements = %v, want %v", got, want)
	}
}

func TestRunqueueLoadPlaceAndRemove(t *testing.T) {
	r := NewRunqueueLoad()
	r.PlaceEntity() // 0·α + β = β
	r.PlaceEntity() // β·α + β
	placed := IterUpdate(0, DefaultAlpha, DefaultBeta, 2)
	if got := r.Load(); got != placed {
		t.Fatalf("Load = %v, want %v", got, placed)
	}
	r.RemoveEntity()
	if got, want := r.Load(), placed-DefaultBeta; got != want {
		t.Fatalf("Load after remove = %v, want %v", got, want)
	}
	r.RemoveEntity() // β·α - β < 0 clamps at zero
	if got := r.Load(); got != 0 {
		t.Fatalf("Load = %v, want clamp at 0", got)
	}
}

func TestRunqueueLoadCoalescedEqualsIterated(t *testing.T) {
	vanilla := NewRunqueueLoad()
	fast := NewRunqueueLoad()
	for i := 0; i < 8; i++ { // the same non-zero starting load
		vanilla.PlaceEntity()
		fast.PlaceEntity()
	}

	const n = 36
	for i := 0; i < n; i++ {
		vanilla.PlaceEntity()
	}
	c, err := Coalesce(DefaultAlpha, DefaultBeta, n)
	if err != nil {
		t.Fatal(err)
	}
	fast.PlaceCoalesced(c)

	if diff := math.Abs(vanilla.Load() - fast.Load()); diff > 1e-6 {
		t.Fatalf("vanilla %v != coalesced %v", vanilla.Load(), fast.Load())
	}
}

func TestRunqueueLoadConcurrentSafety(t *testing.T) {
	r := NewRunqueueLoad()
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.PlaceEntity()
			}
		}()
	}
	wg.Wait()
	// Every placement is the same affine step, so any interleaving
	// of whole locked updates lands on the iterated value exactly.
	if got, want := r.Load(), IterUpdate(0, DefaultAlpha, DefaultBeta, workers*per); got != want {
		t.Fatalf("Load = %v, want %v", got, want)
	}
}
