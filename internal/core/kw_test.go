package core

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestPaperGainsSatisfyConditions(t *testing.T) {
	g := PaperGains()
	if err := g.Validate(); err != nil {
		t.Fatalf("paper gains rejected: %v", err)
	}
	if g.A(1) != 1 || g.A(4) != 0.25 {
		t.Errorf("a_k wrong: a1=%v a4=%v", g.A(1), g.A(4))
	}
	if math.Abs(g.B(8)-0.5) > 1e-12 {
		t.Errorf("b_8 = %v, want 8^(-1/3) = 0.5", g.B(8))
	}
}

func TestGainValidationRejectsBadSchedules(t *testing.T) {
	bad := []PowerGains{
		{A0: 0, AExp: 1, B0: 1, BExp: 1.0 / 3}, // zero scale
		{A0: 1, AExp: 2, B0: 1, BExp: 1.0 / 3}, // Σa_k finite
		{A0: 1, AExp: 1, B0: 1, BExp: 0},       // b_k constant
		{A0: 1, AExp: 0.5, B0: 1, BExp: 0.4},   // Σ a_k b_k diverges
		{A0: 1, AExp: 1, B0: 1, BExp: 0.8},     // Σ (a_k/b_k)² diverges
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid schedule %+v accepted", i, g)
		}
	}
}

func TestKWProbeAlternates(t *testing.T) {
	// Use a gentle probe scale so b_2 fits inside the interval and exact
	// probe values can be asserted.
	gains := PowerGains{A0: 1, AExp: 1, B0: 0.1, BExp: 1.0 / 3}
	kw := NewKieferWolfowitz(0.5, 0, 1, gains)
	if kw.Phase() != PhasePlus {
		t.Fatal("initial phase not plus")
	}
	b := gains.B(2)
	if got := kw.Probe(); math.Abs(got-(0.5+b)) > 1e-12 {
		t.Errorf("plus probe = %v, want %v", got, 0.5+b)
	}
	if kw.Measure(1.0) {
		t.Error("update applied after only the plus window")
	}
	if kw.Phase() != PhaseMinus {
		t.Error("phase did not advance to minus")
	}
	if got := kw.Probe(); math.Abs(got-(0.5-b)) > 1e-12 {
		t.Errorf("minus probe = %v, want %v", got, 0.5-b)
	}
	if !kw.Measure(0.5) {
		t.Error("no update after completing the pair")
	}
	// Positive gradient (yPlus > yMinus) must move x up.
	if kw.X() <= 0.5 {
		t.Errorf("x = %v did not increase on positive gradient", kw.X())
	}
	if kw.K() != 3 {
		t.Errorf("k = %d, want 3", kw.K())
	}
	if PhasePlus.String() != "plus" || PhaseMinus.String() != "minus" {
		t.Error("phase names wrong")
	}
}

func TestKWProjection(t *testing.T) {
	kw := NewKieferWolfowitz(0.85, 0, 0.9, PaperGains())
	// Probe must not exceed Hi even though x + b_k would.
	if got := kw.Probe(); got > 0.9 {
		t.Errorf("probe %v exceeds Hi", got)
	}
	// Force a huge positive gradient; the iterate must clamp at Hi.
	kw.Measure(1e9)
	kw.Measure(0)
	if kw.X() != 0.9 {
		t.Errorf("x = %v, want clamped to 0.9", kw.X())
	}
	// And a huge negative gradient clamps at Lo.
	kw.Measure(0)
	kw.Measure(1e9)
	if kw.X() != 0 {
		t.Errorf("x = %v, want clamped to 0", kw.X())
	}
}

func TestKWConstructorPanics(t *testing.T) {
	for _, c := range []struct{ x0, lo, hi float64 }{
		{0.5, 1, 0},
		{1.5, 0, 1},
		{-0.1, 0, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", c)
				}
			}()
			NewKieferWolfowitz(c.x0, c.lo, c.hi, PaperGains())
		}()
	}
}

// newNoise returns the seeded source of the tests' measurement noise.
func newNoise(seed int64) *rand.Rand { return rand.New(rand.NewPCG(uint64(seed), 0)) }

// noisyObjective simulates measuring a quasi-concave function with
// additive noise — the synthetic stand-in for a throughput measurement
// window.
func noisyObjective(f func(float64) float64, noise float64, rng *rand.Rand) func(float64) float64 {
	return func(x float64) float64 {
		return f(x) + noise*rng.NormFloat64()
	}
}

func TestKWConvergesOnQuadratic(t *testing.T) {
	// S(x) = 1 − 4(x−0.3)², optimum at 0.3, measured with σ = 0.02 noise.
	rng := newNoise(11)
	measure := noisyObjective(func(x float64) float64 {
		return 1 - 4*(x-0.3)*(x-0.3)
	}, 0.02, rng)
	kw := NewKieferWolfowitz(0.8, 0, 1, PaperGains())
	for i := 0; i < 4000; i++ {
		kw.Measure(measure(kw.Probe()))
	}
	if err := math.Abs(kw.X() - 0.3); err > 0.05 {
		t.Errorf("converged to %v, want 0.3 ± 0.05", kw.X())
	}
}

func TestKWConvergesOnAsymmetricBellCurve(t *testing.T) {
	// A skewed quasi-concave objective shaped like the throughput curves
	// of Fig. 2: sharp rise, long decay. Optimum at 0.1.
	rng := newNoise(13)
	f := func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return x / 0.1 * math.Exp(1-x/0.1)
	}
	measure := noisyObjective(f, 0.05, rng)
	kw := NewKieferWolfowitz(0.5, 0.001, 1, PaperGains())
	for i := 0; i < 6000; i++ {
		kw.Measure(measure(kw.Probe()))
	}
	if err := math.Abs(kw.X() - 0.1); err > 0.05 {
		t.Errorf("converged to %v, want 0.1 ± 0.05", kw.X())
	}
}

func TestKWConvergenceFromManyStarts(t *testing.T) {
	// Regardless of the starting point, the iterate must approach the
	// optimum of a clean quasi-concave objective.
	for _, x0 := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		rng := newNoise(int64(100 * x0))
		measure := noisyObjective(func(x float64) float64 {
			return -math.Abs(x - 0.6)
		}, 0.01, rng)
		kw := NewKieferWolfowitz(x0, 0, 1, PaperGains())
		for i := 0; i < 4000; i++ {
			kw.Measure(measure(kw.Probe()))
		}
		if math.Abs(kw.X()-0.6) > 0.07 {
			t.Errorf("start %v: converged to %v, want 0.6", x0, kw.X())
		}
	}
}

func TestKWResetAndRestart(t *testing.T) {
	kw := NewKieferWolfowitz(0.5, 0, 1, PaperGains())
	for i := 0; i < 20; i++ {
		kw.Measure(float64(i))
	}
	k := kw.K()
	kw.Reset(0.7)
	if kw.X() != 0.7 || kw.K() != k {
		t.Errorf("Reset changed k or missed x: x=%v k=%d", kw.X(), kw.K())
	}
	if kw.Phase() != PhasePlus {
		t.Error("Reset did not return to the plus phase")
	}
	// Reset clamps out-of-range targets.
	kw.Reset(5)
	if kw.X() != 1 {
		t.Errorf("Reset(5) gave x = %v, want clamp at 1", kw.X())
	}
}

func TestKWRewindIteration(t *testing.T) {
	kw := NewKieferWolfowitz(0.5, 0, 1, PaperGains())
	kw.Measure(1)
	kw.Measure(0) // k: 2 → 3
	kw.RewindIteration()
	if kw.K() != 2 {
		t.Errorf("k = %d after rewind, want 2", kw.K())
	}
	kw.RewindIteration() // must not go below 2
	if kw.K() != 2 {
		t.Errorf("k = %d, rewind must floor at 2", kw.K())
	}
}
