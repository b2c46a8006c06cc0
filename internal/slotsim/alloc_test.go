package slotsim

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// The slotted engine's inner loop — counter scan, idle fast-forward,
// busy-period accounting, batched backoff redraws — must be
// allocation-free in steady state. The controller window is pushed beyond
// the horizon so series appends (per-window, not per-slot work) stay out
// of the measurement.
func TestSlotLoopZeroAllocSteadyState(t *testing.T) {
	const n = 20
	policies := make([]mac.Policy, n)
	for i := range policies {
		policies[i] = mac.NewPPersistent(1, 0.02)
	}
	s, err := New(Config{Policies: policies, Seed: 9, UpdatePeriod: 1000 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(sim.Second) // warm the scratch slices and prefetch batches
	next := sim.Duration(s.now) + 50*sim.Millisecond
	if avg := testing.AllocsPerRun(50, func() {
		s.Run(next)
		next += 50 * sim.Millisecond
	}); avg != 0 {
		t.Errorf("slot loop allocates %.2f allocs per 50 ms of simulated time, want 0", avg)
	}
	if s.res.Successes == 0 {
		t.Fatal("simulation made no progress")
	}
}

// The unsaturated slot loop adds arrival admission, queue bookkeeping
// and tracker join/leave churn (stations leave on drain, rejoin on the
// next packet); it must be allocation-free in steady state too.
func TestSlotLoopZeroAllocTraffic(t *testing.T) {
	const n = 16
	policies := make([]mac.Policy, n)
	arrivals := make([]traffic.Spec, n)
	for i := range policies {
		policies[i] = mac.NewStandardDCF(16, 1024)
		arrivals[i] = traffic.Spec{Kind: traffic.Poisson, Rate: 250, QueueCap: 16}
	}
	s, err := New(Config{Policies: policies, Arrivals: arrivals, Seed: 11, UpdatePeriod: 1000 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(sim.Second)
	next := sim.Duration(s.now) + 50*sim.Millisecond
	if avg := testing.AllocsPerRun(50, func() {
		s.Run(next)
		next += 50 * sim.Millisecond
	}); avg != 0 {
		t.Errorf("unsaturated slot loop allocates %.2f allocs per 50 ms, want 0", avg)
	}
	if s.res.PacketsArrived == 0 || s.res.Successes == 0 {
		t.Fatal("traffic simulation made no progress")
	}
}

// The controller-enabled slot loop closes measurement windows and
// broadcasts control updates; series appends grow amortised, so the
// bound is under one allocation per window.
func TestSlotLoopControllerSteadyAllocBound(t *testing.T) {
	const n = 20
	phy := model.PaperPHY()
	policies := make([]mac.Policy, n)
	for i := range policies {
		policies[i] = mac.NewPPersistent(1, 0.1)
	}
	s, err := New(Config{
		Policies:   policies,
		Controller: core.NewWTOP(core.WTOPConfig{Scale: phy.BitRate}),
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(4 * sim.Second)
	next := sim.Duration(s.now) + 250*sim.Millisecond
	if avg := testing.AllocsPerRun(20, func() {
		s.Run(next)
		next += 250 * sim.Millisecond
	}); avg > 1 {
		t.Errorf("controller slot loop allocates %.2f allocs per window, want ≤ 1", avg)
	}
	if s.res.Successes == 0 {
		t.Fatal("controller simulation made no progress")
	}
}

// TestStationFootprint pins the slotted engine's per-station memory:
// the 16-byte hot record, the 16-byte generator, the 8-byte delivered-
// bits counter and the tracker's 12 bytes of links. The marginal bytes
// New allocates per extra DCF station must stay within 64; the ring and
// other fixed costs cancel in the difference between two population
// sizes. The policies are the caller's and are built outside the
// measurement.
func TestStationFootprint(t *testing.T) {
	newBytes := func(n int) uint64 {
		policies := make([]mac.Policy, n)
		for i := range policies {
			policies[i] = mac.NewStandardDCF(16, 1024)
		}
		best := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := New(Config{Policies: policies, Seed: 1})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(s)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	const small, large = 8192, 16384
	perStation := float64(newBytes(large)-newBytes(small)) / (large - small)
	t.Logf("New allocates %.1f B per extra station", perStation)
	if perStation > 64 {
		t.Errorf("New allocates %.1f B per extra station, want ≤ 64", perStation)
	}
}
