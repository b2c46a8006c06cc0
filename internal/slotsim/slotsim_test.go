package slotsim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func pPolicies(n int, p float64) []mac.Policy {
	ps := make([]mac.Policy, n)
	for i := range ps {
		ps[i] = mac.NewPPersistent(1, p)
	}
	return ps
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Policies: []mac.Policy{nil}}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := New(Config{Policies: pPolicies(2, 0.1), UpdatePeriod: -1}); err == nil {
		t.Error("negative update period accepted")
	}
}

func TestMatchesAnalyticModel(t *testing.T) {
	m := model.PPersistent{PHY: model.PaperPHY()}
	for _, tc := range []struct {
		n int
		p float64
	}{
		{10, 0.02}, {20, 0.01}, {40, 0.007}, {20, 0.1},
	} {
		s, err := New(Config{Policies: pPolicies(tc.n, tc.p), Seed: int64(tc.n)})
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run(30 * sim.Second)
		attempt := make([]float64, tc.n)
		for i := range attempt {
			attempt[i] = tc.p
		}
		want := m.SystemThroughputAt(attempt)
		if rel := math.Abs(res.Throughput-want) / want; rel > 0.04 {
			t.Errorf("N=%d p=%v: slotted %.3f Mbps vs model %.3f Mbps (rel %.3f)",
				tc.n, tc.p, res.ThroughputMbps(), want/1e6, rel)
		}
	}
}

func TestIdleSlotsMatchModel(t *testing.T) {
	n, p := 20, 0.02
	s, err := New(Config{Policies: pPolicies(n, p), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(30 * sim.Second)
	pi := math.Pow(1-p, float64(n))
	want := pi / (1 - pi)
	if math.Abs(res.IdleSlotsPerTx-want)/want > 0.05 {
		t.Errorf("idle slots per tx %.3f, want %.3f", res.IdleSlotsPerTx, want)
	}
}

func TestAgreesWithEventSimFullyConnected(t *testing.T) {
	// The ablation the DESIGN.md promises: on connected topologies the
	// two engines must tell the same story for identical policies.
	for _, tc := range []struct {
		n int
		p float64
	}{
		{10, 0.03}, {30, 0.01},
	} {
		slot, err := New(Config{Policies: pPolicies(tc.n, tc.p), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rs := slot.Run(20 * sim.Second)
		ev, err := eventsim.New(eventsim.Config{
			Topology: topo.New(topo.Point{}, topo.CircleEdge(tc.n, 8), topo.PaperRadii()),
			Policies: pPolicies(tc.n, tc.p),
			Seed:     2,
		})
		if err != nil {
			t.Fatal(err)
		}
		re := ev.Run(20 * sim.Second)
		if rel := math.Abs(rs.Throughput-re.Throughput) / re.Throughput; rel > 0.05 {
			t.Errorf("N=%d p=%v: slotted %.3f vs event %.3f Mbps (rel %.3f)",
				tc.n, tc.p, rs.ThroughputMbps(), re.ThroughputMbps(), rel)
		}
		if rel := math.Abs(rs.IdleSlotsPerTx-re.APIdleSlots) / re.APIdleSlots; rel > 0.1 {
			t.Errorf("N=%d p=%v: idle slots slotted %.3f vs event %.3f",
				tc.n, tc.p, rs.IdleSlotsPerTx, re.APIdleSlots)
		}
	}
}

func TestDCFAgreesWithEventSim(t *testing.T) {
	mkPolicies := func(n int) []mac.Policy {
		ps := make([]mac.Policy, n)
		for i := range ps {
			ps[i] = mac.NewStandardDCF(8, 1024)
		}
		return ps
	}
	n := 20
	slot, err := New(Config{Policies: mkPolicies(n), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rs := slot.Run(20 * sim.Second)
	ev, err := eventsim.New(eventsim.Config{
		Topology: topo.New(topo.Point{}, topo.CircleEdge(n, 8), topo.PaperRadii()),
		Policies: mkPolicies(n),
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	re := ev.Run(20 * sim.Second)
	if rel := math.Abs(rs.Throughput-re.Throughput) / re.Throughput; rel > 0.06 {
		t.Errorf("DCF slotted %.3f vs event %.3f Mbps (rel %.3f)",
			rs.ThroughputMbps(), re.ThroughputMbps(), rel)
	}
}

func TestWTOPConvergesInSlotSim(t *testing.T) {
	// Full closed loop: wTOP controller + p-persistent stations in the
	// slotted engine must approach the analytic optimum.
	n := 20
	phy := model.PaperPHY()
	ctl := core.NewWTOP(core.WTOPConfig{Scale: phy.BitRate})
	ps := make([]mac.Policy, n)
	for i := range ps {
		ps[i] = mac.NewPPersistent(1, 0.1)
	}
	s, err := New(Config{Policies: ps, Controller: ctl, Seed: 9, PHY: phy})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(120 * sim.Second)
	mdl := model.PPersistent{PHY: phy}
	opt := mdl.MaxThroughput(model.UnitWeights(n))
	converged := res.ThroughputSeries.MeanAfter(sim.Time(60 * sim.Second))
	if converged < 0.9*opt {
		t.Errorf("wTOP converged to %.2f Mbps < 90%% of optimum %.2f Mbps (probe p %.4f, p* %.4f)",
			converged/1e6, opt/1e6, ctl.Control().P, mdl.OptimalP(model.UnitWeights(n)))
	}
}

func TestTORAConvergesInSlotSim(t *testing.T) {
	n := 20
	phy := model.PaperPHY()
	back := model.PaperBackoff()
	ctl := core.NewTORA(back.M)
	ps := make([]mac.Policy, n)
	for i := range ps {
		ps[i] = mac.NewRandomReset(back.CWMin, back.M, 0, 1)
	}
	s, err := New(Config{Policies: ps, Controller: ctl, Seed: 10, PHY: phy})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(120 * sim.Second)
	rr := model.RandomReset{PHY: phy, Backoff: back, N: n}
	_, _, best := rr.OptimalJP(0.05)
	converged := res.ThroughputSeries.MeanAfter(sim.Time(60 * sim.Second))
	if converged < 0.88*best {
		t.Errorf("TORA converged to %.2f Mbps < 88%% of best RandomReset %.2f Mbps (j=%d probe p0=%.3f)",
			converged/1e6, best/1e6, ctl.Control().Stage, ctl.Control().P0)
	}
}

func TestIdleSenseRegulatesIdleSlots(t *testing.T) {
	// IdleSense stations must drive the observed idle-slot average close
	// to the 3.1 target in a connected network.
	n := 20
	ps := make([]mac.Policy, n)
	for i := range ps {
		ps[i] = mac.NewIdleSense()
	}
	s, err := New(Config{Policies: ps, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(60 * sim.Second)
	if math.Abs(res.IdleSlotsPerTx-3.1) > 0.8 {
		t.Errorf("IdleSense idle slots %.3f, want ≈ 3.1", res.IdleSlotsPerTx)
	}
	// And its throughput should be near-optimal in the connected case
	// (Fig. 3: IdleSense ≈ wTOP ≈ TORA without hidden nodes).
	opt := model.PPersistent{PHY: model.PaperPHY()}.MaxThroughput(model.UnitWeights(n))
	if res.Throughput < 0.9*opt {
		t.Errorf("IdleSense throughput %.2f Mbps < 90%% of optimum %.2f", res.ThroughputMbps(), opt/1e6)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) *Result {
		s, err := New(Config{Policies: pPolicies(10, 0.02), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(5 * sim.Second)
	}
	a, b := run(42), run(42)
	if a.Throughput != b.Throughput || a.Successes != b.Successes {
		t.Error("same seed diverged")
	}
}

// A run advanced in increments must be bit-identical to one advanced in
// a single call — the property that lets callers (the wlan facade) poll
// cancellation between chunks. IdleSense exercises the idle-run
// observer whose counter must survive a chunk boundary landing mid
// idle run; the Poisson case exercises arrival admission across
// boundaries.
func TestRunIncrementalMatchesOneShot(t *testing.T) {
	build := func() []Config {
		n := 10
		idle := make([]mac.Policy, n)
		for i := range idle {
			idle[i] = mac.NewIdleSense()
		}
		poisson := make([]traffic.Spec, n)
		for i := range poisson {
			poisson[i] = traffic.Spec{Kind: traffic.Poisson, Rate: 150}
		}
		return []Config{
			{Policies: idle, Seed: 5},
			{Policies: pPolicies(n, 0.05), Seed: 5, Arrivals: poisson},
		}
	}
	const total = 2 * sim.Second
	for ci := range build() {
		one, err := New(build()[ci])
		if err != nil {
			t.Fatal(err)
		}
		whole := one.Run(total)

		chunked, err := New(build()[ci])
		if err != nil {
			t.Fatal(err)
		}
		var got *Result
		// Deliberately ragged chunk ends, none aligned with slots or
		// controller windows.
		for at := sim.Duration(0); at < total; at += 177 * sim.Millisecond {
			got = chunked.Run(at)
		}
		got = chunked.Run(total)

		if !reflect.DeepEqual(whole, got) {
			t.Errorf("config %d: incremental run diverged from one-shot:\n%+v\nvs\n%+v", ci, whole, got)
		}
	}
}
