// Package experiment regenerates every table and figure of the paper's
// evaluation. Each runner returns a Table of formatted rows — the same
// rows/series the paper plots — and is exposed through cmd/experiments
// and the repository's benchmark suite.
//
// Absolute throughput levels differ slightly from the paper's ns-3 stack
// (see EXPERIMENTS.md); the reproduced artefacts are the *shapes*: who
// wins, by what factor, and where behaviour changes.
package experiment

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/eventsim"
	"repro/internal/mac"
	"repro/internal/scenario"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Options scales every experiment. The zero value is unusable; start
// from Quick() or Paper().
type Options struct {
	// Duration is the simulated time per run.
	Duration sim.Duration
	// Warmup is excluded from converged-throughput averages.
	Warmup sim.Duration
	// Seeds is the number of independent repetitions per data point.
	Seeds int
	// Nodes is the station-count sweep for the throughput-vs-N figures.
	Nodes []int
	// Parallelism bounds concurrent simulation runs (0 = GOMAXPROCS).
	Parallelism int
	// CacheDir, when set, backs every grid-shaped figure sweep with the
	// content-addressed sweep cache: re-running a figure (or another
	// figure sharing points) skips completed (spec, engine) cells.
	CacheDir string
}

// Quick returns laptop-scale options: minutes for the full suite. The
// convergence windows are long enough for the controllers to settle but
// much shorter than the paper's 500 s runs.
func Quick() Options {
	return Options{
		Duration: 40 * sim.Second,
		Warmup:   20 * sim.Second,
		Seeds:    3,
		Nodes:    []int{10, 20, 30, 40, 50, 60},
	}
}

// Paper returns the paper-scale options (20 repetitions, long runs).
// Budget hours, not minutes.
func Paper() Options {
	return Options{
		Duration: 200 * sim.Second,
		Warmup:   100 * sim.Second,
		Seeds:    20,
		Nodes:    []int{10, 20, 30, 40, 50, 60},
	}
}

// Validate bounds-checks the options. CLIs call this up front — before
// any figure starts simulating — so an override like `-duration 1ns`
// or a hostile seed count fails with one clear message instead of deep
// inside a figure run.
func (o Options) Validate() error { return o.validate() }

func (o Options) validate() error {
	if o.Duration <= 0 || o.Warmup < 0 || o.Warmup >= o.Duration {
		return fmt.Errorf("experiment: invalid duration/warmup %v/%v", o.Duration, o.Warmup)
	}
	// A run shorter than one controller window cannot produce a single
	// windowed sample; figure math (converged means, series analysis)
	// degenerates to NaN long after the engines accepted it.
	if o.Duration < 250*sim.Millisecond {
		return fmt.Errorf("experiment: duration %v below the 250ms controller window", o.Duration)
	}
	if o.Duration > sim.Duration(scenario.MaxDuration) {
		return fmt.Errorf("experiment: duration %v exceeds the %v limit", o.Duration, time.Duration(scenario.MaxDuration))
	}
	if o.Seeds < 1 || o.Seeds > scenario.MaxSeeds {
		return fmt.Errorf("experiment: seeds %d outside [1, %d]", o.Seeds, scenario.MaxSeeds)
	}
	if len(o.Nodes) == 0 {
		return fmt.Errorf("experiment: empty node sweep")
	}
	for _, n := range o.Nodes {
		if n < 1 || n > scenario.MaxStations {
			return fmt.Errorf("experiment: node count %d outside [1, %d]", n, scenario.MaxStations)
		}
	}
	return nil
}

// Table is a formatted experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries caveats (substitutions, reduced durations).
	Notes []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// TSV renders the table as tab-separated values for plotting.
func (t *Table) TSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, "\t"))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

// The evaluation's topology families: a connected circle of radius 8 m
// and the two hidden-node disc radii of Figs. 6–7. Cells set N. The disc
// seeds stay 0, so every replication redraws its placement from its own
// seed — the convention of the paper's hidden-node sweeps.
var (
	connected = scenario.TopologySpec{Kind: scenario.TopoConnected, Radius: 8}
	disc16    = scenario.TopologySpec{Kind: scenario.TopoDisc, Radius: 16}
	disc20    = scenario.TopologySpec{Kind: scenario.TopoDisc, Radius: 20}
)

// withN returns the topology family ts with n stations.
func withN(ts scenario.TopologySpec, n int) scenario.TopologySpec {
	ts.N = n
	return ts
}

// baseSpec is the scenario every cell starts from: topology ts, o's
// duration and warmup, and o.Seeds replications, replication r running
// with seed 1+r.
func baseSpec(o Options, ts scenario.TopologySpec) scenario.Spec {
	warmup := scenario.Duration(o.Warmup)
	return scenario.Spec{
		Topology: ts,
		Duration: scenario.Duration(o.Duration),
		Warmup:   &warmup,
		Seeds:    o.Seeds,
		Seed:     1,
	}
}

// openLoopSpec is baseSpec for the open-loop cells, which run for half
// of o.Duration: with no controller there is no transient to wait out.
func openLoopSpec(o Options, ts scenario.TopologySpec) scenario.Spec {
	sp := baseSpec(o, ts)
	sp.Duration /= 2
	sp.Warmup = nil
	return sp
}

// runGrid is the sweep path: g expands through internal/sweep and its
// points fan out in parallel through scenario.Runner, backed by the sweep
// cache when o.CacheDir is set. The summaries come back in point order,
// cut into rows of width consecutive points (the last axis varies
// fastest, so a row holds every combination of the trailing axes).
func runGrid(ctx context.Context, o Options, g *sweep.Grid, width int) ([][]*scenario.Summary, error) {
	r := &sweep.Runner{Parallelism: o.Parallelism}
	if o.CacheDir != "" {
		c, err := sweep.OpenCache(o.CacheDir)
		if err != nil {
			return nil, err
		}
		r.Cache = c
	}
	results, _, err := r.Run(ctx, g)
	if err != nil {
		return nil, err
	}
	var rows [][]*scenario.Summary
	for row := range slices.Chunk(results, width) {
		sums := make([]*scenario.Summary, len(row))
		for i, pr := range row {
			sums[i] = pr.Summary
		}
		rows = append(rows, sums)
	}
	return rows, nil
}

// replicate is the serial path, for cells that need more than a
// scenario.Summary carries (windowed series, per-station results) or run
// a policy scheme.Build does not name. It runs sp's replications in seed
// order — replication r with seed sp.Seed+r on its own topology and
// simulator — and hands each result to each. Every station gets
// newPolicy() and no controller; a nil newPolicy builds sp.Scheme with
// sp.Weights through scheme.Build. A churn step at t=0 sets the initial
// active count. Cancellation is observed between replications.
func replicate(ctx context.Context, sp scenario.Spec, newPolicy func() mac.Policy, each func(*eventsim.Result)) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	for r := 0; r < sp.Seeds; r++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		seed := sp.Seed + int64(r)
		tp, err := scenario.BuildTopology(&sp.Topology, seed)
		if err != nil {
			return err
		}
		cfg := eventsim.Config{Topology: tp, Seed: seed}
		if newPolicy == nil {
			cfg.Policies, cfg.Controller, err = scheme.Build(sp.Scheme, sp.Weights, tp.N())
			if err != nil {
				return err
			}
		} else {
			cfg.Policies = make([]mac.Policy, tp.N())
			for i := range cfg.Policies {
				cfg.Policies[i] = newPolicy()
			}
		}
		churn := sp.Churn
		if len(churn) > 0 && churn[0].At == 0 {
			cfg.InitialActive = churn[0].Active
			churn = churn[1:]
		}
		s, err := eventsim.New(cfg)
		if err != nil {
			return err
		}
		for _, step := range churn {
			if err := s.SetActiveAt(sim.Time(step.At), step.Active); err != nil {
				return err
			}
		}
		each(s.Run(sim.Duration(sp.Duration)))
	}
	return nil
}

// Runner produces one paper artefact. Cancelling ctx aborts the run —
// at cell/replication granularity — and returns ctx.Err().
type Runner func(ctx context.Context, o Options) (*Table, error)

// Experiment is one registered artefact: its id, the ids of paired
// figures the same table renders, and its runner.
type Experiment struct {
	ID      string
	Aliases []string
	Run     Runner
}

// Experiments lists every artefact in run order. Ids follow the paper's
// numbering (fig1…fig13, tab2, tab3) and come first; "rtscts", "ladder"
// and "convergence" are extensions.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "fig1", Run: Fig1},
		{ID: "fig2", Run: Fig2},
		{ID: "tab2", Run: Table2},
		{ID: "fig3", Run: Fig3},
		{ID: "fig4", Run: Fig4},
		{ID: "fig5", Run: Fig5},
		{ID: "fig6", Run: Fig6},
		{ID: "fig7", Run: Fig7},
		{ID: "tab3", Run: Table3},
		{ID: "fig8", Aliases: []string{"fig9"}, Run: Fig8and9},
		{ID: "fig10", Aliases: []string{"fig11"}, Run: Fig10and11},
		{ID: "fig12", Run: Fig12},
		{ID: "fig13", Run: Fig13},
		{ID: "rtscts", Run: RTSCTSComparison},
		{ID: "ladder", Run: BaselineLadder},
		{ID: "convergence", Run: Convergence},
	}
}

// Lookup returns the experiment with the given id or alias.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id || slices.Contains(e.Aliases, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
