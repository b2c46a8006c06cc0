package sim

import "testing"

// The scheduler's contract is zero steady-state allocations: once the
// event pool has warmed up, After/AtArg reuse recycled events and Step
// returns them. These guardrails pin that property so a regression shows
// up as a test failure, not a slow creep in GC pressure.

func TestSchedulerAfterStepZeroAlloc(t *testing.T) {
	s := NewScheduler()
	var tick func()
	tick = func() { s.After(100, tick) }
	for i := 0; i < 64; i++ {
		s.After(Duration(i+1), tick)
	}
	// Warm up: grow the heap slice, the free list, and the pool.
	for i := 0; i < 1024; i++ {
		s.Step()
	}
	if avg := testing.AllocsPerRun(1000, func() { s.Step() }); avg != 0 {
		t.Errorf("After/Step steady state allocates %.2f allocs/op, want 0", avg)
	}
}

func TestSchedulerAfterArgStepZeroAlloc(t *testing.T) {
	s := NewScheduler()
	type payload struct{ n int }
	arg := &payload{}
	var tick func(any)
	tick = func(a any) {
		a.(*payload).n++
		s.AfterArg(100, tick, a)
	}
	for i := 0; i < 64; i++ {
		s.AfterArg(Duration(i+1), tick, arg)
	}
	for i := 0; i < 1024; i++ {
		s.Step()
	}
	if avg := testing.AllocsPerRun(1000, func() { s.Step() }); avg != 0 {
		t.Errorf("AfterArg/Step steady state allocates %.2f allocs/op, want 0", avg)
	}
	if arg.n == 0 {
		t.Fatal("callback never ran")
	}
}

func TestSchedulerCancelZeroAlloc(t *testing.T) {
	s := NewScheduler()
	noop := func() {}
	for i := 0; i < 256; i++ {
		s.After(Duration(i+1), noop)
	}
	for s.Step() {
	}
	if avg := testing.AllocsPerRun(1000, func() {
		r := s.After(10, noop)
		r.Cancel()
		s.Step()
	}); avg != 0 {
		t.Errorf("schedule+cancel+collect allocates %.2f allocs/op, want 0", avg)
	}
}

// Arenas reseed every station's generator on each Reset, so reseeding
// must not allocate.
func TestRNGReseedZeroAlloc(t *testing.T) {
	g := NewRNG(1)
	if avg := testing.AllocsPerRun(1000, func() { g.Reseed(2, 3) }); avg != 0 {
		t.Errorf("Reseed allocates %.2f allocs/op, want 0", avg)
	}
}
