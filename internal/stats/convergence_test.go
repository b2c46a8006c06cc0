package stats

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func seriesFrom(values []float64) *TimeSeries {
	ts := &TimeSeries{}
	for i, v := range values {
		ts.Append(sim.Time(i)*sim.Time(sim.Second), v)
	}
	return ts
}

func TestAnalyzeConvergenceBasic(t *testing.T) {
	// Ramp to 100 and stay.
	var vals []float64
	for i := 0; i < 50; i++ {
		vals = append(vals, math.Min(100, float64(i)*5))
	}
	rep := AnalyzeConvergence(seriesFrom(vals), 100, ConvergenceOptions{})
	if !rep.Converged {
		t.Fatal("ramp series not detected as converged")
	}
	// Band entry at value ≥ 90: i = 18.
	if got := rep.TimeToWithin.Seconds(); got != 18 {
		t.Errorf("TimeToWithin = %vs, want 18", got)
	}
	if rep.Efficiency < 0.95 || rep.Efficiency > 1.05 {
		t.Errorf("Efficiency = %v", rep.Efficiency)
	}
	if rep.SteadyStdDev > 5 {
		t.Errorf("SteadyStdDev = %v", rep.SteadyStdDev)
	}
}

func TestAnalyzeConvergenceNeverConverges(t *testing.T) {
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = 10 // far below target 100
	}
	rep := AnalyzeConvergence(seriesFrom(vals), 100, ConvergenceOptions{})
	if rep.Converged {
		t.Fatal("flat low series reported converged")
	}
	if math.Abs(rep.SteadyMean-10) > 1e-9 {
		t.Errorf("tail mean %v", rep.SteadyMean)
	}
	if math.Abs(rep.Efficiency-0.1) > 1e-9 {
		t.Errorf("efficiency %v", rep.Efficiency)
	}
}

func TestAnalyzeConvergenceIgnoresLuckySpike(t *testing.T) {
	// A brief excursion into the band must not count (dwell criterion).
	vals := make([]float64, 60)
	for i := range vals {
		vals[i] = 10
	}
	vals[5] = 100
	vals[6] = 100
	rep := AnalyzeConvergence(seriesFrom(vals), 100, ConvergenceOptions{Dwell: 5})
	if rep.Converged {
		t.Error("two-sample spike counted as convergence")
	}
}

func TestAnalyzeConvergenceToleratesBriefDips(t *testing.T) {
	vals := make([]float64, 60)
	for i := range vals {
		vals[i] = 100
	}
	vals[30] = 50 // single dip
	rep := AnalyzeConvergence(seriesFrom(vals), 100, ConvergenceOptions{})
	if !rep.Converged {
		t.Error("single dip broke convergence detection")
	}
	if rep.TimeToWithin != 0 {
		t.Errorf("TimeToWithin = %v, want 0", rep.TimeToWithin)
	}
}

func TestAnalyzeConvergenceEdgeCases(t *testing.T) {
	if rep := AnalyzeConvergence(&TimeSeries{}, 100, ConvergenceOptions{}); rep.Converged {
		t.Error("empty series converged")
	}
	if rep := AnalyzeConvergence(seriesFrom([]float64{1, 2}), 0, ConvergenceOptions{}); rep.Converged {
		t.Error("zero target converged")
	}
}
