package experiment

import (
	"context"
	"fmt"

	"repro/internal/eventsim"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/scheme"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// RTSCTSComparison is an extension experiment beyond the paper's figures:
// it quantifies the introduction's RTS/CTS argument. For each station
// count it measures standard 802.11 with and without RTS/CTS, in the
// connected and the hidden (16 m disc) topologies. The expected shape:
// RTS/CTS costs throughput where no hidden nodes exist (fixed 6 Mbps
// control overhead per frame) and wins where they do.
func RTSCTSComparison(ctx context.Context, o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	base := openLoopSpec(o, scenario.TopologySpec{})
	base.Scheme = scheme.DCF
	rows, err := runGrid(ctx, o, &sweep.Grid{
		Name: "rtscts",
		Base: base,
		Axes: []sweep.Axis{
			{Field: sweep.FieldNodes, Values: sweep.Ints(o.Nodes...)},
			topologyAxis,
			{Field: sweep.FieldRTSCTS, Values: sweep.Bools(false, true)},
		},
	}, 4)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "rtscts",
		Title: "standard 802.11 basic access vs RTS/CTS (Mbps)",
		Columns: []string{"nodes", "basic (no hidden)", "RTS/CTS (no hidden)",
			"basic (hidden)", "RTS/CTS (hidden)"},
	}
	for i, n := range o.Nodes {
		row := []string{fmt.Sprintf("%d", n)}
		for _, sum := range rows[i] {
			row = append(row, fmt.Sprintf("%.3f", sum.ThroughputMbps.Mean))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: quantifies the RTS/CTS trade-off of Section I",
		"RTS/CTS at the 6 Mbps basic rate, data at 54 Mbps")
	return t, nil
}

// BaselineLadder is a second extension: every contention policy in the
// repository on one connected workload, ordered by throughput — a quick
// regression yardstick for the whole MAC zoo.
func BaselineLadder(ctx context.Context, o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	const n = 30
	phy := model.PaperPHY()
	back := model.PaperBackoff()
	pStar := model.PPersistent{PHY: phy}.OptimalP(model.UnitWeights(n))
	ladder := []struct {
		name      string
		newPolicy func() mac.Policy
	}{
		{"802.11 DCF", func() mac.Policy { return mac.NewStandardDCF(back.CWMin, back.CWMax()) }},
		{"SlowDecrease", func() mac.Policy { return mac.NewSlowDecrease(back.CWMin, back.CWMax(), 0.5) }},
		{"EstimateN", func() mac.Policy { return mac.NewEstimateN(phy.TcSlots(), 10) }},
		{"IdleSense", func() mac.Policy { return mac.NewIdleSense(mac.IdleSenseConfig{}) }},
		{"optimal fixed p", pPersistent(pStar)},
	}
	t := &Table{
		ID:      "ladder",
		Title:   fmt.Sprintf("baseline policies, %d stations, fully connected (Mbps)", n),
		Columns: []string{"policy", "Mbps", "collision rate"},
	}
	for _, rung := range ladder {
		var w, cr stats.Welford
		err := replicate(ctx, openLoopSpec(o, withN(connected, n)), rung.newPolicy, func(res *eventsim.Result) {
			w.Add(res.Throughput)
			cr.Add(res.CollisionRate())
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			rung.name,
			fmt.Sprintf("%.3f", w.Mean()/1e6),
			fmt.Sprintf("%.3f", cr.Mean()),
		})
	}
	t.Notes = append(t.Notes, "extension: related-work policies (SlowDecrease [15], EstimateN [2]) included")
	return t, nil
}
