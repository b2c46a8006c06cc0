package sim

import "testing"

// The scheduler's contract is zero steady-state allocations: once the
// event pool has warmed up, AtArg/AfterArg reuse recycled events and Step
// returns them. These guardrails pin that property so a regression shows
// up as a test failure, not a slow creep in GC pressure.

// A closure made once and passed as the argument schedules without
// allocating too: a func value boxes into an interface for free.
func TestSchedulerAfterStepZeroAlloc(t *testing.T) {
	s := NewScheduler()
	var tick func()
	tick = func() { s.AfterArg(100, call, tick) }
	for i := 0; i < 64; i++ {
		s.AfterArg(Duration(i+1), call, tick)
	}
	// Warm up: grow the heap slice, the free list, and the pool.
	for i := 0; i < 1024; i++ {
		s.Step()
	}
	if avg := testing.AllocsPerRun(1000, func() { s.Step() }); avg != 0 {
		t.Errorf("AfterArg(closure)/Step steady state allocates %.2f allocs/op, want 0", avg)
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
		s.AfterArg(Duration(i+1), call, noop)
	}
	for s.Step() {
	}
	if avg := testing.AllocsPerRun(1000, func() {
		r := s.AfterArg(10, call, noop)
		r.Cancel()
		s.Step()
	}); avg != 0 {
		t.Errorf("schedule+cancel+collect allocates %.2f allocs/op, want 0", avg)
	}
}

// Setting, moving, clearing and firing the out-of-heap candidate reuse
// one pooled event.
func TestSchedulerCandidateZeroAlloc(t *testing.T) {
	s := NewScheduler()
	type payload struct{ n int }
	arg := &payload{}
	fire := func(a any) { a.(*payload).n++ }
	cycle := func() {
		now := s.Now()
		s.SetCandidate(now.Add(20), s.TakeSeq(), fire, arg)
		s.SetCandidate(now.Add(10), s.TakeSeq(), fire, arg)
		s.ClearCandidate()
		s.SetCandidate(now.Add(10), s.TakeSeq(), fire, arg)
		s.Step()
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Errorf("candidate set/clear/fire allocates %.2f allocs/op, want 0", avg)
	}
	if arg.n == 0 {
		t.Fatal("candidate never fired")
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

// Every variate method wraps the generator's state in a rand.Rand that
// must stay on the stack.
func TestRNGDrawsZeroAlloc(t *testing.T) {
	g := NewRNG(1)
	if avg := testing.AllocsPerRun(1000, func() {
		g.Float64()
		g.Intn(7)
		g.Bernoulli(0.5)
		g.Geometric(0.1)
		g.UniformWindow(32)
		g.Exp()
	}); avg != 0 {
		t.Errorf("draws allocate %.2f allocs/op, want 0", avg)
	}
}
