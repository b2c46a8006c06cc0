package experiment

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/scheme"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Convergence is an extension experiment quantifying Section VI-D: how
// fast do wTOP-CSMA and TORA-CSMA reach (and hold) 90% of the analytic
// optimum in a fully connected network, as a function of N? It reports
// the first in-band time, the steady-state mean, efficiency against the
// optimum, and the steady-state standard deviation (TORA's flatter
// maxima should show as a smaller σ — the paper's Fig. 2 vs. Fig. 13
// argument).
//
// The (nodes × scheme) cells form one sweep grid whose points carry
// per-run detail, because the analysis consumes each replication's
// windowed throughput series.
func Convergence(ctx context.Context, o Options) (*Table, error) {
	base := baseSpec(o, connected)
	base.Detail = true
	rows, err := runGrid(ctx, o, &sweep.Grid{
		Name: "convergence",
		Base: base,
		Axes: []sweep.Axis{
			{Field: sweep.FieldNodes, Values: sweep.Ints(o.Nodes...)},
			{Field: sweep.FieldScheme, Values: sweep.Strings(scheme.WTOP, scheme.TORA)},
		},
	}, 2)
	if err != nil {
		return nil, err
	}
	mdl := model.PPersistent{PHY: model.PaperPHY()}
	t := &Table{
		ID:    "convergence",
		Title: "time to reach and hold 90% of the analytic optimum (connected)",
		Columns: []string{"nodes", "scheme", "converged", "t90 (s)",
			"steady Mbps", "efficiency", "steady σ (Mbps)"},
	}
	for i, n := range o.Nodes {
		target := mdl.MaxThroughput(model.UnitWeights(n))
		for _, sum := range rows[i] {
			var t90, eff, steady, sigma stats.Welford
			converged := 0
			for _, run := range sum.Runs {
				series := stats.TimeSeries{Times: run.Throughput.Times, Values: run.Throughput.Values}
				rep := stats.AnalyzeConvergence(&series, target, stats.ConvergenceOptions{})
				if rep.Converged {
					converged++
					t90.Add(rep.TimeToWithin.Seconds())
				}
				eff.Add(rep.Efficiency)
				steady.Add(rep.SteadyMean)
				sigma.Add(rep.SteadyStdDev)
			}
			t90Cell := "-"
			if t90.N() > 0 {
				t90Cell = fmt.Sprintf("%.1f", t90.Mean())
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", n),
				sum.Scheme,
				fmt.Sprintf("%d/%d", converged, sum.Replications),
				t90Cell,
				fmt.Sprintf("%.3f", steady.Mean()/1e6),
				fmt.Sprintf("%.3f", eff.Mean()),
				fmt.Sprintf("%.3f", sigma.Mean()/1e6),
			})
		}
	}
	t.Notes = append(t.Notes,
		"extension: quantifies Section VI-D; target = analytic optimum S(p*) per N",
		"t90 = first entry into the ≥90% band that then holds (8-window dwell)")
	return t, nil
}
