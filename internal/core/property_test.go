package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// Property: the iterate never leaves [Lo, Hi] and probes never leave the
// interval either, for any measurement sequence.
func TestKWIterateStaysProjected(t *testing.T) {
	prop := func(measurements []float64) bool {
		kw := NewKieferWolfowitz(0.5, 0.1, 0.9, PaperGains())
		for _, y := range measurements {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				y = 0
			}
			p := kw.Probe()
			if p < 0.1-1e-12 || p > 0.9+1e-12 {
				return false
			}
			kw.Measure(y)
			if kw.X() < 0.1-1e-12 || kw.X() > 0.9+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with the relative gradient, the per-update step magnitude is
// bounded by a_k·2/b_k for non-negative measurements.
func TestKWRelativeStepBounded(t *testing.T) {
	prop := func(yPlusRaw, yMinusRaw uint32) bool {
		kw := NewKieferWolfowitz(0.5, 0, 1, PaperGains())
		a, b := PaperGains().A(2), PaperGains().B(2)
		before := kw.X()
		kw.Measure(float64(yPlusRaw))
		kw.Measure(float64(yMinusRaw))
		step := math.Abs(kw.X() - before)
		// Projection can only shrink the step.
		return step <= a*2/b+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the update direction follows the measured difference — larger
// plus-window throughput never moves the iterate down, and vice versa.
func TestKWUpdateDirection(t *testing.T) {
	prop := func(aRaw, bRaw uint16) bool {
		yPlus, yMinus := float64(aRaw)+1, float64(bRaw)+1
		kw := NewKieferWolfowitz(0.5, 0, 1, PaperGains())
		kw.Measure(yPlus)
		kw.Measure(yMinus)
		switch {
		case yPlus > yMinus:
			return kw.X() >= 0.5
		case yPlus < yMinus:
			return kw.X() <= 0.5
		default:
			return kw.X() == 0.5
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: TORA's stage stays within {0, …, M−1} under arbitrary
// measurement sequences.
func TestTORAStageStaysInRange(t *testing.T) {
	prop := func(measurements []uint16, mRaw uint8) bool {
		m := 2 + int(mRaw%7)
		c := NewTORA(m)
		for _, v := range measurements {
			c.OnWindowEnd(float64(v))
			if c.J() < 0 || c.J() > m-1 {
				return false
			}
			if p0 := c.P0Val(); p0 < 0 || p0 > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: wTOP's broadcast probability stays within (0, maxP] for any
// measurement stream, including adversarial all-zero ones.
func TestWTOPBroadcastStaysInRange(t *testing.T) {
	prop := func(measurements []uint8) bool {
		w := NewWTOP(WTOPConfig{Scale: 1})
		for _, v := range measurements {
			p := w.Control().P
			if p <= 0 || p > 0.9+1e-12 {
				return false
			}
			w.OnWindowEnd(float64(v) / 255)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The collapse-escape rule must never fire on healthy measurements: with
// throughput well above the dead threshold the trajectory matches a
// controller fed the same values with no escape opportunities.
func TestCollapseEscapeInertOnHealthyStreams(t *testing.T) {
	rng := sim.NewRNG(3)
	w := NewWTOP(WTOPConfig{Scale: 1})
	for i := 0; i < 200; i++ {
		w.OnWindowEnd(0.3 + 0.1*rng.Float64()) // 30–40% utilisation
	}
	// After 100 healthy pairs the iterate must be strictly inside the
	// interval (escape would pin it near minP).
	if w.PVal() <= 2e-4 {
		t.Errorf("healthy stream drove pval to the floor: %v", w.PVal())
	}
}
