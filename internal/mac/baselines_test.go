package mac

import (
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/sim"
)

func TestSlowDecreaseWindowDynamics(t *testing.T) {
	rng := sim.NewRNG(1)
	sd := NewSlowDecrease(8, 1024)
	if sd.CW() != 8 {
		t.Fatalf("initial CW = %d", sd.CW())
	}
	sd.OnFailure(rng)
	sd.OnFailure(rng)
	if sd.CW() != 32 {
		t.Errorf("after 2 failures CW = %d, want 32", sd.CW())
	}
	// Success halves instead of resetting.
	sd.OnSuccess(rng)
	if sd.CW() != 16 {
		t.Errorf("after success CW = %d, want 16 (slow decrease)", sd.CW())
	}
	// Floors at CWmin, caps at CWmax.
	for i := 0; i < 20; i++ {
		sd.OnSuccess(rng)
	}
	if sd.CW() != 8 {
		t.Errorf("CW floored at %d, want CWmin", sd.CW())
	}
	for i := 0; i < 20; i++ {
		sd.OnFailure(rng)
	}
	if sd.CW() != 1024 {
		t.Errorf("CW capped at %d, want CWmax", sd.CW())
	}
	b := sd.NextBackoff(rng)
	if b < 0 || b >= sd.CW() {
		t.Errorf("backoff %d outside window", b)
	}
	sd.OnControl(frame.Control{Scheme: frame.ControlWTOP, P: 0.5})
	if got := sd.AttemptProbability(); math.Abs(got-2.0/1025) > 1e-9 {
		t.Errorf("attempt probability %v", got)
	}
}

func TestSlowDecreaseDefaultsAndPanics(t *testing.T) {
	for _, c := range []struct{ min, max int }{{0, 8}, {16, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", c)
				}
			}()
			NewSlowDecrease(c.min, c.max)
		}()
	}
}

func TestEstimateNConvergesOnSyntheticChannel(t *testing.T) {
	// Feed the estimator the exact analytic idle statistics for a known
	// N; N̂ must converge near N and p near the closed-form optimum.
	const trueN = 25
	tcStar := 23.0
	e := NewEstimateN(tcStar)
	for iter := 0; iter < 3000; iter++ {
		p := e.AttemptProbability()
		q := 1 - math.Pow(1-p, trueN)
		e.ObserveTransmission((1 - q) / q)
	}
	if math.Abs(e.NHat()-trueN)/trueN > 0.15 {
		t.Errorf("N̂ = %.2f, want ≈ %d", e.NHat(), trueN)
	}
	wantP := 1 / (trueN * math.Sqrt(tcStar/2))
	if math.Abs(e.AttemptProbability()-wantP)/wantP > 0.2 {
		t.Errorf("p = %.5f, want ≈ %.5f", e.AttemptProbability(), wantP)
	}
}

func TestEstimateNRobustness(t *testing.T) {
	e := NewEstimateN(23)
	rng := sim.NewRNG(2)
	// Degenerate observations must not wedge the estimator.
	for i := 0; i < 100; i++ {
		e.ObserveTransmission(0)
	}
	if e.AttemptProbability() <= 0 || e.AttemptProbability() > 0.5 {
		t.Errorf("p out of range after zero-idle floods: %v", e.AttemptProbability())
	}
	for i := 0; i < 100; i++ {
		e.ObserveTransmission(1e9)
	}
	if e.NHat() > estimateMaxN {
		t.Errorf("N̂ exceeded cap: %v", e.NHat())
	}
	b := e.NextBackoff(rng)
	if b < 0 {
		t.Errorf("backoff %d", b)
	}
	e.OnSuccess(rng)
	e.OnFailure(rng)
	e.OnControl(frame.Control{})
	if !e.BackoffMemoryless() {
		t.Error("EstimateN must be memoryless")
	}
}

func TestEstimateNPanicsOnBadTc(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("T*c ≤ 1 accepted")
		}
	}()
	NewEstimateN(0.5)
}

var (
	_ Policy          = (*SlowDecrease)(nil)
	_ Policy          = (*EstimateN)(nil)
	_ AttemptReporter = (*SlowDecrease)(nil)
	_ AttemptReporter = (*EstimateN)(nil)
	_ MediumObserver  = (*EstimateN)(nil)
	_ Memoryless      = (*EstimateN)(nil)
)
