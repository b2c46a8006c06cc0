package eventsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/topo"
)

// wtopSim builds a wTOP-CSMA closed loop over the given topology.
func wtopSim(t *testing.T, tp *topo.Topology, weights []float64, seed int64) (*Simulator, *core.WTOP) {
	t.Helper()
	phy := model.PaperPHY()
	ctl := core.NewWTOP(core.WTOPConfig{Scale: phy.BitRate})
	ps := make([]mac.Policy, tp.N())
	for i := range ps {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		ps[i] = mac.NewPPersistent(w, 0.1)
	}
	s, err := New(Config{Topology: tp, Policies: ps, Controller: ctl, Seed: seed, PHY: phy})
	if err != nil {
		t.Fatal(err)
	}
	return s, ctl
}

// wtopSimWithErrors builds a wTOP loop over a lossy channel.
func wtopSimWithErrors(t *testing.T, n int, errorRate float64, seed int64) (*Simulator, *core.WTOP) {
	t.Helper()
	phy := model.PaperPHY()
	ctl := core.NewWTOP(core.WTOPConfig{Scale: phy.BitRate})
	ps := make([]mac.Policy, n)
	for i := range ps {
		ps[i] = mac.NewPPersistent(1, 0.1)
	}
	s, err := New(Config{
		Topology:       connectedTopo(n),
		Policies:       ps,
		Controller:     ctl,
		Seed:           seed,
		PHY:            phy,
		FrameErrorRate: errorRate,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, ctl
}

// toraSim builds a TORA-CSMA closed loop.
func toraSim(t *testing.T, tp *topo.Topology, seed int64) (*Simulator, *core.TORA) {
	t.Helper()
	phy := model.PaperPHY()
	back := model.PaperBackoff()
	ctl := core.NewTORA(back.M)
	ps := make([]mac.Policy, tp.N())
	for i := range ps {
		ps[i] = mac.NewRandomReset(back.CWMin, back.M, 0, 1)
	}
	s, err := New(Config{Topology: tp, Policies: ps, Controller: ctl, Seed: seed, PHY: phy})
	if err != nil {
		t.Fatal(err)
	}
	return s, ctl
}

func TestWTOPConvergesFullyConnected(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop convergence run")
	}
	n := 20
	s, ctl := wtopSim(t, connectedTopo(n), nil, 41)
	res := s.Run(90 * sim.Second)
	mdl := model.PPersistent{PHY: model.PaperPHY()}
	opt := mdl.MaxThroughput(model.UnitWeights(n))
	converged := res.ConvergedThroughput(45 * sim.Second)
	if converged < 0.88*opt {
		t.Errorf("wTOP converged to %.2f Mbps < 88%% of optimum %.2f Mbps (probe p %.4f, p* %.4f)",
			converged/1e6, opt/1e6, ctl.Control().P, mdl.OptimalP(model.UnitWeights(n)))
	}
}

func TestWTOPBeatsStandardDCFFullyConnected(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop convergence run")
	}
	// Fig. 3's core claim at N = 40: wTOP ≫ standard 802.11.
	n := 40
	s, _ := wtopSim(t, connectedTopo(n), nil, 43)
	wtop := s.Run(90 * sim.Second).ConvergedThroughput(45 * sim.Second)

	ps := make([]mac.Policy, n)
	for i := range ps {
		ps[i] = mac.NewStandardDCF(8, 1024)
	}
	d, err := New(Config{Topology: connectedTopo(n), Policies: ps, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	dcf := d.Run(30 * sim.Second).Throughput
	// Fig. 3's shape: a clear gap at N=40. The paper shows ≈1.35× with
	// its ns-3 PHY accounting; ours lands ≈1.2× (see EXPERIMENTS.md).
	if wtop < 1.15*dcf {
		t.Errorf("wTOP %.2f Mbps not clearly above standard DCF %.2f Mbps at N=40",
			wtop/1e6, dcf/1e6)
	}
}

func TestWTOPWeightedFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop convergence run")
	}
	// Table II: weights 1,1,1,2,2,2,3,3,3,3 — normalised throughput must
	// be uniform and the total near the unweighted optimum.
	weights := []float64{1, 1, 1, 2, 2, 2, 3, 3, 3, 3}
	s, _ := wtopSim(t, connectedTopo(10), weights, 47)
	res := s.Run(90 * sim.Second)
	if w := res.WeightedJainIndex(); w < 0.95 {
		t.Errorf("weighted Jain index %.4f, want ≥ 0.95", w)
	}
	// Per-weight shares: station 9 (w=3) ≈ 3× station 0 (w=1).
	r0 := res.Stations[0].Throughput
	r9 := res.Stations[9].Throughput
	if ratio := r9 / r0; ratio < 2.4 || ratio > 3.6 {
		t.Errorf("weight-3/weight-1 throughput ratio %.2f, want ≈ 3", ratio)
	}
}

func TestTORAConvergesFullyConnected(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop convergence run")
	}
	n := 20
	s, ctl := toraSim(t, connectedTopo(n), 53)
	res := s.Run(90 * sim.Second)
	rr := model.RandomReset{PHY: model.PaperPHY(), Backoff: model.PaperBackoff(), N: n}
	_, _, best := rr.OptimalJP(0.05)
	converged := res.ConvergedThroughput(45 * sim.Second)
	if converged < 0.85*best {
		t.Errorf("TORA converged to %.2f Mbps < 85%% of best RandomReset %.2f Mbps (j=%d, probe p0=%.3f)",
			converged/1e6, best/1e6, ctl.Control().Stage, ctl.Control().P0)
	}
}

func TestControllersBeatDCFWithHiddenNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop convergence run")
	}
	// The paper's hidden-node findings (Section IV, Figs. 6–7): the
	// exponential-backoff TORA-CSMA holds up and outperforms the optimal
	// p-persistent scheme, which — as the paper itself observes — "can
	// perform worse even than the standard IEEE 802.11 protocol".
	tp := topo.New(topo.Point{}, topo.UniformDisc(20, 16, sim.NewRNG(2024)), topo.PaperRadii())
	if len(tp.HiddenPairs()) == 0 {
		t.Skip("seed produced no hidden pairs")
	}
	if err := tp.Validate(); err != nil {
		t.Skip("seed produced stations outside AP range")
	}

	runDCF := func() float64 {
		ps := make([]mac.Policy, tp.N())
		for i := range ps {
			ps[i] = mac.NewStandardDCF(8, 1024)
		}
		s, err := New(Config{Topology: tp, Policies: ps, Seed: 61})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(30 * sim.Second).Throughput
	}
	dcf := runDCF()

	sw, _ := wtopSim(t, tp, nil, 61)
	wtop := sw.Run(90 * sim.Second).ConvergedThroughput(45 * sim.Second)

	st, _ := toraSim(t, tp, 61)
	tora := st.Run(90 * sim.Second).ConvergedThroughput(45 * sim.Second)

	// TORA must hold up against standard 802.11 (it generalises it: DCF
	// is RandomReset(0;1)), and must beat the p-persistent optimum — the
	// paper's case for keeping exponential backoff.
	if tora < 0.95*dcf {
		t.Errorf("hidden nodes: TORA %.2f Mbps below standard DCF %.2f Mbps", tora/1e6, dcf/1e6)
	}
	if tora <= wtop {
		t.Errorf("hidden nodes: TORA %.2f Mbps did not beat wTOP %.2f Mbps", tora/1e6, wtop/1e6)
	}
	t.Logf("hidden topology (%d hidden pairs): DCF %.2f, wTOP %.2f, TORA %.2f Mbps",
		len(tp.HiddenPairs()), dcf/1e6, wtop/1e6, tora/1e6)
}

func TestWTOPAdaptsToNodeChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop convergence run")
	}
	// Figs. 8–9: throughput must stay near the optimum as N steps
	// 10 → 30 → 20.
	n := 30
	phy := model.PaperPHY()
	ctl := core.NewWTOP(core.WTOPConfig{Scale: phy.BitRate})
	ps := make([]mac.Policy, n)
	for i := range ps {
		ps[i] = mac.NewPPersistent(1, 0.1)
	}
	sim3, err := New(Config{
		Topology:      connectedTopo(n),
		Policies:      ps,
		Controller:    ctl,
		Seed:          67,
		InitialActive: 10,
		PHY:           phy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim3.SetActiveAt(sim.Time(60*sim.Second), 30); err != nil {
		t.Fatal(err)
	}
	if err := sim3.SetActiveAt(sim.Time(120*sim.Second), 20); err != nil {
		t.Fatal(err)
	}
	res := sim3.Run(180 * sim.Second)
	mdl := model.PPersistent{PHY: phy}
	// In each regime's tail the throughput should be near that regime's
	// optimum.
	phases := []struct {
		from, to sim.Time
		n        int
	}{
		{sim.Time(30 * sim.Second), sim.Time(60 * sim.Second), 10},
		{sim.Time(90 * sim.Second), sim.Time(120 * sim.Second), 30},
		{sim.Time(150 * sim.Second), sim.Time(180 * sim.Second), 20},
	}
	for _, ph := range phases {
		var sum float64
		var count int
		for i, at := range res.ThroughputSeries.Times {
			if at >= ph.from && at < ph.to {
				sum += res.ThroughputSeries.Values[i]
				count++
			}
		}
		if count == 0 {
			t.Fatalf("no samples in phase %+v", ph)
		}
		got := sum / float64(count)
		opt := mdl.MaxThroughput(model.UnitWeights(ph.n))
		if got < 0.8*opt {
			t.Errorf("churn phase N=%d: %.2f Mbps < 80%% of optimum %.2f Mbps (probe p %.4f)",
				ph.n, got/1e6, opt/1e6, ctl.Control().P)
		}
	}
}
