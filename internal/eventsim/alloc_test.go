package eventsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// The per-frame path — backoff countdown, transmission launch and
// completion, ACK exchange, contention restart — must be allocation-free
// once the event pool, transmission pool and air-state slices have warmed
// up. The controller window is pushed beyond the horizon so the test
// isolates the frame lifecycle (series appends are measured windows, not
// per-frame work).
func TestPerFramePathZeroAllocSteadyState(t *testing.T) {
	const n = 10
	policies := make([]mac.Policy, n)
	for i := range policies {
		policies[i] = mac.NewStandardDCF(16, 1024)
	}
	s, err := New(Config{
		Topology:     topo.New(topo.Point{}, topo.CircleEdge(n, 8), topo.PaperRadii()),
		Policies:     policies,
		UpdatePeriod: 1000 * sim.Second,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2 * sim.Second) // warm every pool
	next := s.sched.Now()
	if avg := testing.AllocsPerRun(50, func() {
		next = next.Add(20 * sim.Millisecond)
		s.sched.RunUntil(next)
	}); avg != 0 {
		t.Errorf("per-frame path allocates %.2f allocs per 20 ms of simulated time, want 0", avg)
	}
	if s.successes == 0 {
		t.Fatal("simulation made no progress")
	}
}

// The p-persistent path additionally exercises the geometric backoff
// draw with its cached ln(1-p); it must be allocation-free too.
func TestPerFramePathZeroAllocPPersistent(t *testing.T) {
	const n = 20
	policies := make([]mac.Policy, n)
	for i := range policies {
		policies[i] = mac.NewPPersistent(1, 0.02)
	}
	s, err := New(Config{
		Topology:     topo.New(topo.Point{}, topo.CircleEdge(n, 8), topo.PaperRadii()),
		Policies:     policies,
		UpdatePeriod: 1000 * sim.Second,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2 * sim.Second)
	next := s.sched.Now()
	if avg := testing.AllocsPerRun(50, func() {
		next = next.Add(20 * sim.Millisecond)
		s.sched.RunUntil(next)
	}); avg != 0 {
		t.Errorf("p-persistent per-frame path allocates %.2f allocs per 20 ms, want 0", avg)
	}
}

// The RTS/CTS path adds the CTS and the NAV hold and release of every
// exchange: pooled holds released through AfterArg keep it
// allocation-free once warm.
func TestRTSCTSPathZeroAllocSteadyState(t *testing.T) {
	const n = 10
	policies := make([]mac.Policy, n)
	for i := range policies {
		policies[i] = mac.NewStandardDCF(16, 1024)
	}
	s, err := New(Config{
		Topology:     topo.New(topo.Point{}, topo.CircleEdge(n, 8), topo.PaperRadii()),
		Policies:     policies,
		RTSCTS:       true,
		UpdatePeriod: 1000 * sim.Second,
		Seed:         9,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2 * sim.Second)
	next := s.sched.Now()
	before := s.successes
	if avg := testing.AllocsPerRun(50, func() {
		next = next.Add(20 * sim.Millisecond)
		s.sched.RunUntil(next)
	}); avg != 0 {
		t.Errorf("RTS/CTS per-exchange path allocates %.2f allocs per 20 ms, want 0", avg)
	}
	if s.successes == before {
		t.Fatal("no RTS/CTS exchange completed during the measurement")
	}
}

// The unsaturated path adds arrival events, queue pushes/pops and the
// latency/jitter accounting to the frame lifecycle, and on/off sources
// add phase flips that start and silence the arrival process; once the
// queue backing arrays have reached their high-water mark it must be
// allocation-free too.
func TestPerFramePathZeroAllocTraffic(t *testing.T) {
	for name, spec := range map[string]traffic.Spec{
		"poisson": {Kind: traffic.Poisson, Rate: 300, QueueCap: 32},
		"onoff": {Kind: traffic.OnOff, Rate: 300, QueueCap: 32,
			OnMean: 30 * sim.Millisecond, OffMean: 30 * sim.Millisecond},
	} {
		t.Run(name, func(t *testing.T) {
			const n = 10
			policies := make([]mac.Policy, n)
			arrivals := make([]traffic.Spec, n)
			for i := range policies {
				policies[i] = mac.NewStandardDCF(16, 1024)
				arrivals[i] = spec
			}
			s, err := New(Config{
				Topology:     topo.New(topo.Point{}, topo.CircleEdge(n, 8), topo.PaperRadii()),
				Policies:     policies,
				Arrivals:     arrivals,
				UpdatePeriod: 1000 * sim.Second,
				Seed:         5,
			})
			if err != nil {
				t.Fatal(err)
			}
			s.Run(2 * sim.Second)
			next := s.sched.Now()
			if avg := testing.AllocsPerRun(50, func() {
				next = next.Add(20 * sim.Millisecond)
				s.sched.RunUntil(next)
			}); avg != 0 {
				t.Errorf("unsaturated per-frame path allocates %.2f allocs per 20 ms, want 0", avg)
			}
			if s.totalArrivals == 0 || s.successes == 0 {
				t.Fatal("traffic simulation made no progress")
			}
		})
	}
}

// The controller-enabled path adds window closes, control broadcasts
// and beacon frames. Window/series appends are amortised (power-of-two
// growth), so the guardrail runs whole windows and requires the
// amortised steady state to stay under one allocation per window.
func TestControllerPathSteadyAllocBound(t *testing.T) {
	const n = 12
	phy := model.PaperPHY()
	policies := make([]mac.Policy, n)
	for i := range policies {
		policies[i] = mac.NewPPersistent(1, 0.1)
	}
	s, err := New(Config{
		Topology:   topo.New(topo.Point{}, topo.CircleEdge(n, 8), topo.PaperRadii()),
		Policies:   policies,
		Controller: core.NewWTOP(core.WTOPConfig{Scale: phy.BitRate}),
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(4 * sim.Second) // warm pools and series past several growths
	next := s.sched.Now()
	if avg := testing.AllocsPerRun(20, func() {
		next = next.Add(250 * sim.Millisecond) // one controller window
		s.sched.RunUntil(next)
	}); avg > 1 {
		t.Errorf("controller path allocates %.2f allocs per window, want ≤ 1 (amortised series growth)", avg)
	}
	if s.successes == 0 {
		t.Fatal("controller simulation made no progress")
	}
}
