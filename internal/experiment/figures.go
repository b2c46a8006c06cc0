package experiment

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/scheme"
	"repro/internal/sweep"
)

// topologyAxis sweeps the connected family and the 16 m hidden-node disc.
// The grid's base leaves the radius unset, so each kind takes its
// scenario default — the 8 m circle and the 16 m disc.
var topologyAxis = sweep.Axis{Field: sweep.FieldTopology, Values: sweep.Strings(scenario.TopoConnected, scenario.TopoDisc)}

// Fig1 reproduces Figure 1: IdleSense vs. standard 802.11, with and
// without hidden nodes, as the number of stations grows. It is the
// motivating figure — IdleSense wins handily in the connected network and
// collapses once hidden nodes appear.
func Fig1(ctx context.Context, o Options) (*Table, error) {
	rows, err := runGrid(ctx, o, &sweep.Grid{
		Name: "fig1",
		Base: baseSpec(o, scenario.TopologySpec{}),
		Axes: []sweep.Axis{
			{Field: sweep.FieldNodes, Values: sweep.Ints(o.Nodes...)},
			topologyAxis,
			{Field: sweep.FieldScheme, Values: sweep.Strings(scheme.IdleSense, scheme.DCF)},
		},
	}, 4)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig1",
		Title: "IdleSense vs standard 802.11, with and without hidden nodes (Mbps)",
		Columns: []string{"nodes", "IdleSense (no hidden)", "802.11 (no hidden)",
			"802.11 (hidden)", "IdleSense (hidden)"},
	}
	for i, n := range o.Nodes {
		row := []string{fmt.Sprintf("%d", n)}
		for _, sum := range rows[i] {
			row = append(row, fmt.Sprintf("%.3f", sum.ConvergedMbps.Mean))
		}
		row[3], row[4] = row[4], row[3] // hidden columns list 802.11 first
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"hidden topologies: stations uniform in disc radius 16 m, sensing radius 24 m",
		fmt.Sprintf("mean of %d seeds, %v per run", o.Seeds, o.Duration))
	return t, nil
}

// sweepTable renders mean converged throughput vs. N for each scheme on
// topology family ts.
func sweepTable(ctx context.Context, o Options, id, title string, ts scenario.TopologySpec, schemes ...string) (*Table, error) {
	nodes := slices.Sorted(slices.Values(o.Nodes))
	rows, err := runGrid(ctx, o, &sweep.Grid{
		Name: id,
		Base: baseSpec(o, ts),
		Axes: []sweep.Axis{
			{Field: sweep.FieldNodes, Values: sweep.Ints(nodes...)},
			{Field: sweep.FieldScheme, Values: sweep.Strings(schemes...)},
		},
	}, len(schemes))
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title, Columns: append([]string{"nodes"}, schemes...)}
	for i, n := range nodes {
		row := []string{fmt.Sprintf("%d", n)}
		for _, sum := range rows[i] {
			row = append(row, fmt.Sprintf("%.3f", sum.ConvergedMbps.Mean))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("throughput in Mbps; mean of %d seeds, %v runs, %v warmup",
		o.Seeds, o.Duration, o.Warmup))
	return t, nil
}

// openLoop renders the open-loop Figs. 2, 4, 5 and 13 into t: scheme
// sch with its control variable fixed at each of controls and no
// controller, on topology family ts at N = 20 and 40 — for each of
// radii in turn when given. Row i, labelled label(i), holds the mean
// throughput of each cell, after the closed form analytic(i, N) when
// analytic is non-nil.
func openLoop(ctx context.Context, o Options, t *Table, sch string, ts scenario.TopologySpec, controls []float64,
	label func(i int) string, analytic func(i, n int) (float64, error), radii ...float64) error {
	base := openLoopSpec(o, ts)
	base.Scheme = sch
	axes := []sweep.Axis{{Field: sweep.FieldControl, Values: sweep.Floats(controls...)}}
	if len(radii) > 0 {
		axes = append(axes, sweep.Axis{Field: sweep.FieldRadius, Values: sweep.Floats(radii...)})
	}
	axes = append(axes, sweep.Axis{Field: sweep.FieldNodes, Values: sweep.Ints(20, 40)})
	rows, err := runGrid(ctx, o, &sweep.Grid{Name: t.ID, Base: base, Axes: axes}, 2*max(1, len(radii)))
	if err != nil {
		return err
	}
	for i, sums := range rows {
		row := []string{label(i)}
		for _, sum := range sums {
			if analytic != nil {
				want, err := analytic(i, sum.Stations)
				if err != nil {
					return err
				}
				row = append(row, fmt.Sprintf("%.3f", want/1e6))
			}
			row = append(row, fmt.Sprintf("%.3f", sum.ThroughputMbps.Mean))
		}
		t.Rows = append(t.Rows, row)
	}
	return nil
}

// hiddenColumns heads the cells of Figs. 4 and 5: the open-loop policy
// simulated at N = 20 and 40 in each hidden-node disc family.
var hiddenColumns = []string{"N=20 disc16", "N=40 disc16", "N=20 disc20", "N=40 disc20"}

// Fig2 reproduces Figure 2: p-persistent throughput vs. log(attempt
// probability) in a fully connected network — the analytic Eq. (3) curve
// cross-checked against the event simulator.
func Fig2(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		ID:    "fig2",
		Title: "p-persistent throughput vs attempt probability, fully connected (Mbps)",
		Columns: []string{"log(p)", "model N=20", "sim N=20",
			"model N=40", "sim N=40"},
	}
	mdl := model.PPersistent{PHY: model.PaperPHY()}
	logps, ps := sweepLogP()
	err := openLoop(ctx, o, t, scheme.WTOP, connected, ps,
		func(i int) string { return fmt.Sprintf("%.2f", logps[i]) },
		func(i, n int) (float64, error) { return mdl.SystemThroughput(ps[i], model.UnitWeights(n)), nil })
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "log base e; paper plots log10 over [-10,-2] — same bell shape")
	return t, nil
}

// sweepLogP covers the paper's Fig. 2/Fig. 4 x-axis: ln p from ≈ −7 to
// ≈ −1 (p from ~10^-3 to ~0.37). It returns each ln p and its p.
func sweepLogP() (logps, ps []float64) {
	for lp := -7.0; lp <= -0.9; lp += 0.5 {
		logps = append(logps, lp)
		ps = append(ps, math.Exp(lp))
	}
	return logps, ps
}

// sweepP0 covers the Fig. 5/Fig. 13 x-axis: p0 from 0 to 1 in steps of
// 0.1.
func sweepP0() []float64 {
	var out []float64
	for p0 := 0.0; p0 <= 1.0001; p0 += 0.1 {
		out = append(out, math.Min(p0, 1))
	}
	return out
}

// Table2 reproduces Table II: wTOP-CSMA weighted fairness with weights
// 1,1,1,2,2,2,3,3,3,3 across ten stations.
func Table2(ctx context.Context, o Options) (*Table, error) {
	weights := []float64{1, 1, 1, 2, 2, 2, 3, 3, 3, 3}
	sp := baseSpec(o, withN(connected, len(weights)))
	sp.Scheme, sp.Weights, sp.Seeds, sp.Detail = scheme.WTOP, weights, 1, true
	rows, err := runGrid(ctx, o, &sweep.Grid{Name: "tab2", Base: sp}, 1)
	if err != nil {
		return nil, err
	}
	sum := rows[0][0]
	t := &Table{
		ID:      "tab2",
		Title:   "wTOP-CSMA weighted fairness (10 stations)",
		Columns: []string{"node", "weight", "throughput (Mbps)", "normalized (Mbps/weight)"},
	}
	total := 0.0
	for i, tput := range sum.Runs[0].StationThroughput {
		total += tput
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.0f", weights[i]),
			fmt.Sprintf("%.5f", tput/1e6),
			fmt.Sprintf("%.5f", tput/weights[i]/1e6),
		})
	}
	t.Rows = append(t.Rows, []string{"total", "", fmt.Sprintf("%.4f", total/1e6), ""})
	t.Notes = append(t.Notes,
		fmt.Sprintf("weighted Jain index %.4f", sum.WeightedJain.Mean),
		"paper reports ≈22.4 Mbps total with uniform normalized throughput")
	return t, nil
}

// Fig3 reproduces Figure 3: throughput vs. N for all four schemes in the
// fully connected network.
func Fig3(ctx context.Context, o Options) (*Table, error) {
	return sweepTable(ctx, o, "fig3",
		"throughput vs number of stations, fully connected (Mbps)",
		connected, scheme.TORA, scheme.WTOP, scheme.IdleSense, scheme.DCF)
}

// Fig4 reproduces Figure 4: p-persistent throughput vs. attempt
// probability in hidden-node topologies — the quasi-concavity evidence
// that justifies applying Kiefer–Wolfowitz where no analytic model exists.
func Fig4(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		ID:      "fig4",
		Title:   "p-persistent throughput vs attempt probability, hidden nodes (Mbps)",
		Columns: append([]string{"log(p)"}, hiddenColumns...),
	}
	logps, ps := sweepLogP()
	err := openLoop(ctx, o, t, scheme.WTOP, disc16, ps, func(i int) string { return fmt.Sprintf("%.2f", logps[i]) },
		nil, disc16.Radius, disc20.Radius)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "each column a fixed random hidden topology family, seed-averaged")
	return t, nil
}

// Fig5 reproduces Figure 5: RandomReset throughput vs. reset probability
// p0 (j = 0) in hidden-node topologies.
func Fig5(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		ID:      "fig5",
		Title:   "RandomReset throughput vs p0 (j=0), hidden nodes (Mbps)",
		Columns: append([]string{"p0"}, hiddenColumns...),
	}
	p0s := sweepP0()
	err := openLoop(ctx, o, t, scheme.TORA, disc16, p0s, func(i int) string { return fmt.Sprintf("%.1f", p0s[i]) },
		nil, disc16.Radius, disc20.Radius)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig13 reproduces Figure 13: RandomReset throughput vs. p0 (j = 0) in
// the fully connected network, with the appendix fixed-point model
// alongside the simulation.
func Fig13(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		ID:    "fig13",
		Title: "RandomReset throughput vs p0 (j=0), fully connected (Mbps)",
		Columns: []string{"p0", "model N=20", "sim N=20",
			"model N=40", "sim N=40"},
	}
	p0s := sweepP0()
	err := openLoop(ctx, o, t, scheme.TORA, connected, p0s, func(i int) string { return fmt.Sprintf("%.1f", p0s[i]) },
		func(i, n int) (float64, error) {
			rr := model.RandomReset{PHY: model.PaperPHY(), Backoff: model.PaperBackoff(), N: n}
			return rr.Throughput(0, p0s[i])
		})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig6 reproduces Figure 6: throughput vs. N with stations in a 16 m
// disc (hidden nodes present).
func Fig6(ctx context.Context, o Options) (*Table, error) {
	return sweepTable(ctx, o, "fig6",
		"throughput vs number of stations, disc radius 16 m (Mbps)",
		disc16, scheme.TORA, scheme.WTOP, scheme.DCF, scheme.IdleSense)
}

// Fig7 reproduces Figure 7: throughput vs. N with stations in a 20 m
// disc (more hidden pairs).
func Fig7(ctx context.Context, o Options) (*Table, error) {
	return sweepTable(ctx, o, "fig7",
		"throughput vs number of stations, disc radius 20 m (Mbps)",
		disc20, scheme.TORA, scheme.WTOP, scheme.DCF, scheme.IdleSense)
}

// Table3 reproduces Table III: average idle slots and throughput for 40
// stations under IdleSense and wTOP-CSMA, without hidden nodes and for
// two hidden-node draws. The punchline: IdleSense pins its idle-slot
// statistic at the 3.1 target everywhere, yet its throughput collapses
// with hidden nodes, while wTOP-CSMA's converged idle-slot level varies
// by configuration — proof that no fixed target can be right.
func Table3(ctx context.Context, o Options) (*Table, error) {
	const n = 40
	cases := []struct {
		label string
		ts    scenario.TopologySpec
		seed  int64
	}{
		{"without hidden nodes", connected, 1},
		{"with hidden nodes (case 1)", disc16, 1},
		{"with hidden nodes (case 2)", disc20, 2},
	}
	t := &Table{
		ID:    "tab3",
		Title: "average idle slots and throughput, 40 stations",
		Columns: []string{"scenario", "IdleSense idle", "IdleSense Mbps",
			"wTOP idle", "wTOP Mbps"},
	}
	for _, c := range cases {
		sp := baseSpec(o, withN(c.ts, n))
		sp.Seeds, sp.Seed = 1, c.seed
		rows, err := runGrid(ctx, o, &sweep.Grid{
			Name: "tab3",
			Base: sp,
			Axes: []sweep.Axis{{Field: sweep.FieldScheme, Values: sweep.Strings(scheme.IdleSense, scheme.WTOP)}},
		}, 2)
		if err != nil {
			return nil, err
		}
		row := []string{c.label}
		for _, sum := range rows[0] {
			row = append(row,
				fmt.Sprintf("%.3f", sum.APIdleSlots.Mean),
				fmt.Sprintf("%.3f", sum.ConvergedMbps.Mean))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"idle = mean idle slots per transmission observed at the AP",
		"hidden cases are two independent random topologies, as in the paper")
	return t, nil
}
