package scenario

import (
	"fmt"

	"repro/internal/eventsim"
	"repro/internal/model"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/topo"
)

// EngineConfig assembles the engine configuration of the replication
// with seed repSeed: topology, scheme, PHY, controller window, RTS/CTS,
// frame errors and traffic. The churn schedule and any frame capture are
// the caller's to apply. Call only on validated specs.
func EngineConfig(sp *Spec, repSeed int64) (eventsim.Config, error) {
	tp, err := BuildTopology(&sp.Topology, repSeed)
	if err != nil {
		return eventsim.Config{}, err
	}
	n := tp.N()
	policies, controller, err := scheme.Build(sp.Scheme, sp.Weights, n)
	if err != nil {
		return eventsim.Config{}, err
	}
	return eventsim.Config{
		PHY:            model.PaperPHY(),
		Topology:       tp,
		Policies:       policies,
		Controller:     controller,
		UpdatePeriod:   sim.Duration(sp.UpdatePeriod),
		Seed:           repSeed,
		RTSCTS:         sp.RTSCTS,
		FrameErrorRate: sp.FrameErrorRate,
		Arrivals:       sp.arrivals(n),
	}, nil
}

// BuildTopology realises a topology spec for one replication. Random
// families (disc) draw from NewRNG(ts.Seed) when the spec pins a seed,
// else from NewRNG(repSeed ^ 0x5eed) so each replication sees a fresh
// placement — matching, respectively, the wlan.HiddenDisc convention of
// the original examples and the per-seed redraws of the experiment
// harness. Call only on validated specs.
func BuildTopology(ts *TopologySpec, repSeed int64) (*topo.Topology, error) {
	var t *topo.Topology
	switch ts.Kind {
	case TopoConnected:
		t = topo.New(topo.Point{}, topo.CircleEdge(ts.N, ts.Radius), topo.PaperRadii())
	case TopoDisc:
		seed := ts.Seed
		if seed == 0 {
			seed = repSeed ^ 0x5eed
		}
		rng := sim.NewRNG(seed)
		pts := topo.UniformDisc(ts.N, ts.Radius, rng)
		// Stations drawn beyond the decode radius are projected just
		// inside its rim (the paper's Fig. 7 construction keeps AP
		// connectivity for every station). The rim radius derives from
		// the radii themselves — see topo.Radii.Rim.
		topo.ClampToRim(pts, topo.PaperRadii())
		t = topo.New(topo.Point{}, pts, topo.PaperRadii())
	case TopoClusters:
		t = topo.New(topo.Point{}, topo.TwoClusters(ts.N, ts.Separation), topo.PaperRadii())
	case TopoCustom:
		pts := make([]topo.Point, len(ts.Points))
		for i, p := range ts.Points {
			pts[i] = topo.Point{X: p.X, Y: p.Y}
		}
		t = topo.New(topo.Point{}, pts, topo.PaperRadii())
	default:
		return nil, fmt.Errorf("scenario: unknown topology kind %q", ts.Kind)
	}
	// Enforce the system model's standing assumption for every family:
	// each station must decode (and be decodable by) the AP. Spec
	// validation bounds each family to satisfy this, but the geometric
	// check is the authority.
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
