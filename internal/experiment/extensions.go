package experiment

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/scheme"
	"repro/internal/sweep"
)

// RTSCTSComparison is an extension experiment beyond the paper's figures:
// it quantifies the introduction's RTS/CTS argument. For each station
// count it measures standard 802.11 with and without RTS/CTS, in the
// connected and the hidden (16 m disc) topologies. The expected shape:
// RTS/CTS costs throughput where no hidden nodes exist (fixed 6 Mbps
// control overhead per frame) and wins where they do.
func RTSCTSComparison(ctx context.Context, o Options) (*Table, error) {
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
	const n = 30
	pStar := model.PPersistent{PHY: model.PaperPHY()}.OptimalP(model.UnitWeights(n))
	base := openLoopSpec(o, withN(connected, n))
	rows, err := runGrid(ctx, o, &sweep.Grid{
		Name: "ladder",
		Base: base,
		Axes: []sweep.Axis{{Field: sweep.FieldScheme, Values: sweep.Strings(scheme.DCF, scheme.SlowDecrease, scheme.EstimateN, scheme.IdleSense)}},
	}, 4)
	if err != nil {
		return nil, err
	}
	base.Scheme = scheme.WTOP
	fixed, err := runGrid(ctx, o, &sweep.Grid{
		Name: "ladder",
		Base: base,
		Axes: []sweep.Axis{{Field: sweep.FieldControl, Values: sweep.Floats(pStar)}},
	}, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ladder",
		Title:   fmt.Sprintf("baseline policies, %d stations, fully connected (Mbps)", n),
		Columns: []string{"policy", "Mbps", "collision rate"},
	}
	labels := []string{"802.11 DCF", "SlowDecrease", "EstimateN", "IdleSense", "optimal fixed p"}
	for i, sum := range append(rows[0], fixed[0][0]) {
		t.Rows = append(t.Rows, []string{
			labels[i],
			fmt.Sprintf("%.3f", sum.ThroughputMbps.Mean),
			fmt.Sprintf("%.3f", sum.CollisionRate.Mean),
		})
	}
	t.Notes = append(t.Notes, "extension: related-work policies (SlowDecrease [15], EstimateN [2]) included")
	return t, nil
}
