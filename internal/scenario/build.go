package scenario

import (
	"fmt"

	"repro/internal/eventsim"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/topo"
)

// EngineConfig assembles the engine configuration of the replication
// with seed repSeed: BuildTopology, then EngineConfigOn. Call only on
// validated specs.
func EngineConfig(sp *Spec, repSeed int64) (eventsim.Config, error) {
	tp, err := BuildTopology(&sp.Topology, repSeed)
	if err != nil {
		return eventsim.Config{}, err
	}
	return EngineConfigOn(sp, tp, repSeed)
}

// EngineConfigOn assembles the engine configuration of sp's run fields
// (scheme, weights, fixed control, traffic, controller window, RTS/CTS,
// frame errors) on topology tp with seed, under the paper's PHY: the
// one assembly the scenario runner, the experiment harness and the wlan
// facade share. A fixed control is set on every policy scheme.Build
// made, and the controller is dropped. It rejects what it cannot build,
// a topology without stations included, so callers may pass specs
// Validate never saw. Churn and frame capture are the caller's to
// apply.
func EngineConfigOn(sp *Spec, tp *topo.Topology, seed int64) (eventsim.Config, error) {
	n := tp.N()
	if n < 1 {
		return eventsim.Config{}, fmt.Errorf("scenario: the topology has no stations")
	}
	policies, controller, err := scheme.Build(sp.Scheme, sp.Weights, n)
	if err != nil {
		return eventsim.Config{}, err
	}
	if sp.Control != nil {
		if err := scheme.CheckControl(sp.Scheme, sp.Control); err != nil {
			return eventsim.Config{}, err
		}
		for _, p := range policies {
			switch p := p.(type) {
			case *mac.PPersistent:
				p.SetAttemptProbability(*sp.Control)
			case *mac.RandomReset:
				p.SetReset(0, *sp.Control)
			}
		}
		controller = nil
	}
	arrivals, err := arrivals(sp.Traffic, n)
	if err != nil {
		return eventsim.Config{}, err
	}
	return eventsim.Config{
		PHY:            model.PaperPHY(),
		Topology:       tp,
		Policies:       policies,
		Controller:     controller,
		UpdatePeriod:   sim.Duration(sp.UpdatePeriod),
		Seed:           seed,
		RTSCTS:         sp.RTSCTS,
		FrameErrorRate: sp.FrameErrorRate,
		Arrivals:       arrivals,
	}, nil
}

// BuildTopology realises a topology spec for one replication. Random
// families (disc) draw from NewRNG(ts.Seed) when the spec pins a seed,
// else from NewRNG(repSeed ^ 0x5eed) so each replication sees a fresh
// placement — matching, respectively, the wlan.HiddenDisc convention of
// the original examples and the per-seed redraws of the experiment
// harness. Call only on validated specs.
func BuildTopology(ts *TopologySpec, repSeed int64) (*topo.Topology, error) {
	var pts []topo.Point
	switch ts.Kind {
	case TopoConnected:
		pts = topo.CircleEdge(ts.N, ts.Radius)
	case TopoDisc:
		seed := ts.Seed
		if seed == 0 {
			seed = repSeed ^ 0x5eed
		}
		pts = topo.UniformDisc(ts.N, ts.Radius, sim.NewRNG(seed))
		// Stations drawn beyond the decode radius are projected just
		// inside its rim (the paper's Fig. 7 construction keeps AP
		// connectivity for every station). The rim radius derives from
		// the radii themselves — see topo.Radii.Rim.
		topo.ClampToRim(pts, topo.PaperRadii())
	case TopoClusters:
		pts = topo.TwoClusters(ts.N, ts.Separation)
	case TopoCustom:
		pts = make([]topo.Point, len(ts.Points))
		for i, p := range ts.Points {
			pts[i] = topo.Point(p)
		}
	default:
		return nil, fmt.Errorf("scenario: unknown topology kind %q", ts.Kind)
	}
	t := topo.New(topo.Point{}, pts, topo.PaperRadii())
	// Enforce the system model's standing assumption for every family:
	// each station must decode (and be decodable by) the AP. Spec
	// validation bounds each family to satisfy this, but the geometric
	// check is the authority.
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
