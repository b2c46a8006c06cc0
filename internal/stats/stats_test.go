package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.N() != 0 {
		t.Error("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Sample variance with n−1: Σ(x−5)² = 32, 32/7.
	if math.Abs(w.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", w.Variance(), 32.0/7)
	}
	if math.Abs(w.StdErr()-w.StdDev()/math.Sqrt(8)) > 1e-12 {
		t.Error("StdErr inconsistent with StdDev")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal allocations: %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("single hog: %v, want 0.25", got)
	}
	if got := JainIndex(nil); got != 1 {
		t.Errorf("empty: %v, want 1", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all zero: %v, want 1", got)
	}
}

func TestJainIndexBounds(t *testing.T) {
	prop := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, math.Abs(x))
			}
		}
		j := JainIndex(clean)
		if len(clean) == 0 {
			return j == 1
		}
		return j >= 1/float64(len(clean))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedJainIndex(t *testing.T) {
	// Allocations exactly proportional to weights are perfectly fair.
	got, err := WeightedJainIndex([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("proportional: %v, want 1", got)
	}
	// Equal allocations with unequal weights are unfair.
	got, _ = WeightedJainIndex([]float64{1, 1, 1}, []float64{1, 1, 10})
	if got >= 1-1e-6 {
		t.Errorf("disproportional allocations scored %v", got)
	}
	if _, err := WeightedJainIndex([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := WeightedJainIndex([]float64{1}, []float64{0}); err == nil {
		t.Error("zero weight accepted")
	}
}

func TestThroughputMeter(t *testing.T) {
	var m ThroughputMeter
	m.Account(8000)
	m.Account(8000)
	now := sim.Time(2 * sim.Millisecond)
	if got := m.Rate(now); math.Abs(got-8e6) > 1 {
		t.Errorf("Rate = %v, want 8e6", got)
	}
	m.ResetWindow(now)
	if got := m.Rate(now); got != 0 {
		t.Errorf("Rate over empty window = %v, want 0", got)
	}
	m.Account(1000)
	if got := m.Rate(now.Add(sim.Millisecond)); math.Abs(got-1e6) > 1 {
		t.Errorf("Rate after reset = %v, want 1e6", got)
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	if _, _, ok := ts.Last(); ok {
		t.Error("empty Last returned ok")
	}
	for i := 0; i < 10; i++ {
		ts.Append(sim.Time(i), float64(i*i))
	}
	if ts.Len() != 10 {
		t.Errorf("Len = %d", ts.Len())
	}
	at, v, ok := ts.Last()
	if !ok || at != 9 || v != 81 {
		t.Errorf("Last = (%v, %v, %v)", at, v, ok)
	}
	// MeanAfter excludes earlier samples.
	if got := ts.MeanAfter(8); got != (64+81)/2.0 {
		t.Errorf("MeanAfter = %v", got)
	}
}

func TestTimeSeriesCompaction(t *testing.T) {
	ts := TimeSeries{MaxSize: 8}
	for i := 0; i < 100; i++ {
		ts.Append(sim.Time(i), float64(i))
	}
	if ts.Len() > 16 {
		t.Errorf("series grew to %d despite MaxSize 8", ts.Len())
	}
	// Order must be preserved.
	for i := 1; i < ts.Len(); i++ {
		if ts.Times[i] <= ts.Times[i-1] {
			t.Fatal("compaction broke ordering")
		}
	}
	// Newest sample must survive.
	_, v, _ := ts.Last()
	if v != 99 {
		t.Errorf("last value %v, want 99", v)
	}
}

func TestIdleSlotTracker(t *testing.T) {
	const (
		slot = 9 * sim.Microsecond
		difs = 34 * sim.Microsecond
	)
	k := NewIdleSlotTracker(slot, difs)
	if k.Average() != 0 {
		t.Error("initial average non-zero")
	}
	// DIFS + 18 µs idle = 2 countable slots, then busy.
	k.MediumIdle(0)
	k.MediumBusy(sim.Time(difs + 18*sim.Microsecond))
	if got := k.Average(); math.Abs(got-2) > 1e-9 {
		t.Errorf("Average = %v, want 2", got)
	}
	// Busy again with no intervening idle: contributes 0 idle slots.
	k.MediumBusy(sim.Time(100 * sim.Microsecond))
	if got := k.Average(); math.Abs(got-1) > 1e-9 {
		t.Errorf("Average = %v, want 1 (2 slots over 2 periods)", got)
	}
	// A SIFS-sized gap merges into the ongoing exchange: no new period.
	base := sim.Time(200 * sim.Microsecond)
	k.MediumIdle(base)
	k.MediumBusy(base.Add(16 * sim.Microsecond))
	if got := k.Average(); math.Abs(got-1) > 1e-9 {
		t.Errorf("Average = %v after SIFS merge, want 1", got)
	}
	// Duplicate MediumIdle must not restart the idle run.
	base = sim.Time(400 * sim.Microsecond)
	k.MediumIdle(base)
	k.MediumIdle(base.Add(5 * sim.Microsecond))
	k.MediumBusy(base.Add(difs + 9*sim.Microsecond))
	if got := k.Average(); math.Abs(got-1) > 1e-9 {
		t.Errorf("Average = %v, want 1 (3 slots over 3 periods)", got)
	}
}

func TestIdleSlotTrackerExactDIFSGap(t *testing.T) {
	k := NewIdleSlotTracker(9*sim.Microsecond, 34*sim.Microsecond)
	k.MediumIdle(0)
	k.MediumBusy(sim.Time(34 * sim.Microsecond)) // exactly DIFS: 0 slots, new period
	if got := k.Average(); got != 0 {
		t.Errorf("Average = %v, want 0", got)
	}
}

func TestIdleSlotTrackerPanicsOnBadSlot(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero slot")
		}
	}()
	NewIdleSlotTracker(0, 0)
}

func TestIdleSlotTrackerPanicsOnNegativeDIFS(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for negative DIFS")
		}
	}()
	NewIdleSlotTracker(9*sim.Microsecond, -1)
}
