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

// churnPhases is the node-arrival/departure script of Figs. 8–11: the
// active-station count steps through phases of equal length.
var churnPhases = []int{10, 30, 60, 20, 40}

// churnGrid states the dynamic-N scenario declaratively: the churn
// schedule as a base spec, with the topology family (connected vs the
// 16 m hidden-node disc) as the swept axis. Its points carry per-run
// detail, since the figures plot the windowed series.
func churnGrid(o Options, sch string) *sweep.Grid {
	churn := make([]scenario.ChurnStep, len(churnPhases))
	for i, n := range churnPhases {
		churn[i] = scenario.ChurnStep{At: scenario.Duration(o.Duration) * scenario.Duration(i), Active: n}
	}
	return &sweep.Grid{
		Name: "churn-" + sch,
		Base: scenario.Spec{
			Scheme:   sch,
			Topology: scenario.TopologySpec{N: slices.Max(churnPhases)},
			Churn:    churn,
			Duration: scenario.Duration(o.Duration) * scenario.Duration(len(churnPhases)),
			Seeds:    1,
			Seed:     1,
			Detail:   true,
		},
		Axes: []sweep.Axis{topologyAxis},
	}
}

// churnTable renders the throughput/control/active time series of a
// churn run — one table covering both of the paper's paired figures
// (throughput vs. time and control variable vs. time).
func churnTable(ctx context.Context, o Options, id, title, sch string) (*Table, error) {
	rows, err := runGrid(ctx, o, churnGrid(o, sch), 2)
	if err != nil {
		return nil, err
	}
	// Expansion order follows the topology axis: connected then disc.
	conn, hidden := &rows[0][0].Runs[0], &rows[0][1].Runs[0]
	control := "p"
	if sch == scheme.TORA {
		control = "p0"
	}
	t := &Table{
		ID:    id,
		Title: title,
		Columns: []string{"time (s)", "active nodes",
			"Mbps (no hidden)", control + " (no hidden)",
			"Mbps (hidden)", control + " (hidden)"},
	}
	// The three series share window boundaries; sample every k-th point
	// to keep the table readable.
	nSamples := len(conn.Throughput.Times)
	stride := nSamples / 50
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < nSamples; i += stride {
		at := conn.Throughput.Times[i]
		row := []string{
			fmt.Sprintf("%.1f", at.Seconds()),
			fmt.Sprintf("%.0f", conn.Active.Values[i]),
			fmt.Sprintf("%.3f", conn.Throughput.Values[i]/1e6),
			controlAt(conn, i),
			mbpsAt(hidden, i),
			controlAt(hidden, i),
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("active-node schedule %v, one phase per %v", churnPhases, o.Duration))
	return t, nil
}

func mbpsAt(r *scenario.RunDetail, i int) string {
	if i >= len(r.Throughput.Values) {
		return ""
	}
	return fmt.Sprintf("%.3f", r.Throughput.Values[i]/1e6)
}

func controlAt(r *scenario.RunDetail, i int) string {
	if i >= len(r.Control.Values) {
		return ""
	}
	return fmt.Sprintf("%.5f", r.Control.Values[i])
}

// Fig8and9 reproduces Figures 8 and 9: wTOP-CSMA throughput and control
// variable over time as the station count steps.
func Fig8and9(ctx context.Context, o Options) (*Table, error) {
	return churnTable(ctx, o, "fig8",
		"wTOP-CSMA under node churn: throughput (Fig. 8) and p (Fig. 9)",
		scheme.WTOP)
}

// Fig10and11 reproduces Figures 10 and 11: the same scenario for
// TORA-CSMA (throughput and p0).
func Fig10and11(ctx context.Context, o Options) (*Table, error) {
	return churnTable(ctx, o, "fig10",
		"TORA-CSMA under node churn: throughput (Fig. 10) and p0 (Fig. 11)",
		scheme.TORA)
}

// Fig12 reproduces Figure 12: the fixed-point geometry of the
// RandomReset attempt probability — τ_c(0;p0) versus the collision
// response c(τ) for N = 10, m = 5, CWmin = 2. Pure analysis; no
// simulation.
func Fig12(context.Context, Options) (*Table, error) {
	back := model.BackoffParams{CWMin: 2, M: 5}
	rr := model.RandomReset{PHY: model.PaperPHY(), Backoff: back, N: 10}
	t := &Table{
		ID:    "fig12",
		Title: "fixed-point curves τ_c(0;p0) and c = 1-(1-τ)^(N-1), N=10 m=5 CWmin=2",
		Columns: []string{"c", "tau(p0=0.0)", "tau(p0=0.2)", "tau(p0=0.4)",
			"tau(p0=0.6)", "tau(p0=0.8)", "tau from c (inverse)"},
	}
	for c := 0.0; c <= 1.0001; c += 0.05 {
		row := []string{fmt.Sprintf("%.2f", c)}
		for _, p0 := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
			tau, err := rr.AttemptGivenCollisionJP(0, p0, c)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.5f", tau))
		}
		// The "collision response" curve plotted as τ such that
		// c = 1-(1-τ)^(N-1), i.e. τ = 1-(1-c)^(1/(N-1)).
		tau := 1 - pow(1-c, 1.0/9)
		row = append(row, fmt.Sprintf("%.5f", tau))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"fixed points are the intersections of each τ_c column with the inverse-response column",
		"monotone ordering in p0 is Lemma 5")
	return t, nil
}

func pow(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, y)
}
