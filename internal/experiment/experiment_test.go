package experiment

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/scenario"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topo"
)

// tinyOptions keeps experiment tests fast: the goal here is correctness
// of the harness (structure, plumbing, monotone sanity), not statistics.
func tinyOptions() Options {
	return Options{
		Duration: 6 * sim.Second,
		Warmup:   3 * sim.Second,
		Seeds:    1,
		Nodes:    []int{5, 15},
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{},
		{Duration: sim.Second, Warmup: 2 * sim.Second, Seeds: 1, Nodes: []int{5}},
		{Duration: sim.Second, Seeds: 0, Nodes: []int{5}},
		{Duration: sim.Second, Seeds: 1},
		// CLI-override typos must fail up front, not deep inside a run:
		// a 1ns duration, hostile seed counts, out-of-range node counts.
		{Duration: 1, Seeds: 1, Nodes: []int{5}},
		{Duration: 100 * sim.Millisecond, Seeds: 1, Nodes: []int{5}},
		{Duration: sim.Second, Seeds: 1 << 30, Nodes: []int{5}},
		{Duration: sim.Second, Seeds: -3, Nodes: []int{5}},
		{Duration: sim.Second, Seeds: 1, Nodes: []int{0}},
		{Duration: sim.Second, Seeds: 1, Nodes: []int{5, 100001}},
		{Duration: 48 * 3600 * sim.Second, Warmup: sim.Second, Seeds: 1, Nodes: []int{5}},
	}
	for i, o := range bad {
		if err := o.validate(); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
	if err := Quick().validate(); err != nil {
		t.Errorf("Quick() invalid: %v", err)
	}
	if err := Paper().validate(); err != nil {
		t.Errorf("Paper() invalid: %v", err)
	}
	// The exported wrapper is what CLIs call before simulating.
	if err := (Options{Duration: 1, Seeds: 1, Nodes: []int{5}}).Validate(); err == nil {
		t.Error("exported Validate accepted a 1ns duration")
	}
}

func TestBuildTopologyFamilies(t *testing.T) {
	build := func(ts scenario.TopologySpec, n int, seed int64) *topo.Topology {
		t.Helper()
		tp, err := scenario.BuildTopology(&ts, seed)
		if err != nil {
			t.Fatal(err)
		}
		if tp.N() != n {
			t.Fatalf("%+v: %d stations, want %d", ts, tp.N(), n)
		}
		return tp
	}
	if !build(withN(connected, 20), 20, 1).FullyConnected() {
		t.Error("connected family has hidden pairs")
	}
	// disc20 projection should produce at least as many hidden pairs as
	// disc16 on average (checked across seeds).
	p16, p20 := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		p16 += len(build(withN(disc16, 40), 40, seed).HiddenPairs())
		p20 += len(build(withN(disc20, 40), 40, seed).HiddenPairs())
	}
	if p20 <= p16 {
		t.Errorf("disc20 hidden pairs (%d) not above disc16 (%d)", p20, p16)
	}
	if p16 == 0 {
		t.Error("disc16 produced no hidden pairs across 10 seeds at N=40")
	}
}

func TestBuildSimAllSchemes(t *testing.T) {
	o := Options{Duration: 2 * sim.Second, Seeds: 1}
	for _, sch := range []string{scheme.DCF, scheme.IdleSense, scheme.WTOP, scheme.TORA} {
		sp := baseSpec(o, withN(connected, 4))
		sp.Scheme = sch
		var successes int64
		if err := replicate(context.Background(), sp, nil, func(res *eventsim.Result) { successes = res.Successes }); err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		if successes == 0 {
			t.Errorf("%s: no successes in 2s", sch)
		}
	}
	sp := baseSpec(o, withN(connected, 4))
	sp.Scheme = "bogus"
	if err := replicate(context.Background(), sp, nil, func(*eventsim.Result) {}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"note1"},
	}
	s := tbl.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "333") || !strings.Contains(s, "note1") {
		t.Errorf("String output incomplete:\n%s", s)
	}
	tsv := tbl.TSV()
	lines := strings.Split(strings.TrimSpace(tsv), "\n")
	if len(lines) != 3 {
		t.Fatalf("TSV has %d lines, want 3", len(lines))
	}
	if lines[0] != "a\tbb" {
		t.Errorf("TSV header %q", lines[0])
	}
}

func TestRegistryCoversAllIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		for _, id := range append([]string{e.ID}, e.Aliases...) {
			if seen[id] {
				t.Errorf("id %q registered twice", id)
			}
			seen[id] = true
			if got, ok := Lookup(id); !ok || got.ID != e.ID {
				t.Errorf("Lookup(%q) = %q, %v; want %q", id, got.ID, ok, e.ID)
			}
		}
	}
	// fig9/fig11 alias their paired runners.
	for alias, id := range map[string]string{"fig9": "fig8", "fig11": "fig10"} {
		if got, ok := Lookup(alias); !ok || got.ID != id {
			t.Errorf("alias %s resolves to %q, want %s", alias, got.ID, id)
		}
	}
	if _, ok := Lookup("fig14"); ok {
		t.Error("unknown id resolved")
	}
}

func TestFig12IsAnalyticAndOrdered(t *testing.T) {
	tbl, err := Fig12(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 10 {
		t.Fatalf("fig12 rows = %d", len(tbl.Rows))
	}
	// Lemma 5 visible in the table: τ increases along each row across
	// the p0 columns (for c < 1).
	for _, row := range tbl.Rows[:len(tbl.Rows)-1] {
		prev := -1.0
		for col := 1; col <= 5; col++ {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", row[col], err)
			}
			if v <= prev {
				t.Fatalf("row %v: τ not increasing in p0", row)
			}
			prev = v
		}
	}
}

func TestSweepStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	o := tinyOptions()
	tbl, err := sweepTable(context.Background(), o, "t", "demo", connected, scheme.DCF)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(o.Nodes) {
		t.Fatalf("rows %d, want %d", len(tbl.Rows), len(o.Nodes))
	}
	if tbl.Columns[0] != "nodes" || tbl.Columns[1] != "802.11" {
		t.Errorf("columns %v", tbl.Columns)
	}
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil || v <= 0 || v > 60 {
			t.Errorf("implausible throughput cell %q", row[1])
		}
	}
}

func TestTable2Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	o := tinyOptions()
	o.Duration = 20 * sim.Second
	o.Warmup = 10 * sim.Second
	tbl, err := Table2(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 11 { // 10 stations + total
		t.Fatalf("rows = %d, want 11", len(tbl.Rows))
	}
	total, err := strconv.ParseFloat(tbl.Rows[10][2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if total < 15 || total > 30 {
		t.Errorf("total throughput %.2f Mbps implausible", total)
	}
}

func TestChurnRunsAndTracksN(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	o := tinyOptions()
	pts, err := sweep.Expand(churnGrid(o, scheme.WTOP))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("churn grid expanded to %d points, want 2 topologies", len(pts))
	}
	res, err := runChurn(context.Background(), &pts[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	// The active-node series must step through the schedule values.
	seen := map[int]bool{}
	for _, v := range res.ActiveSeries.Values {
		seen[int(v)] = true
	}
	for _, n := range churnPhases {
		if !seen[n] {
			t.Errorf("active series never showed %d stations", n)
		}
	}
	dcf, err := sweep.Expand(churnGrid(o, scheme.DCF))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runChurn(context.Background(), &dcf[0].Spec); err == nil {
		t.Error("churn accepted a non-adaptive scheme")
	}
}

// Node counts that pass Validate but whose neighbour lists exceed the
// event engine's adjacency budget (n(n−1) > 134,217,728 entries) must
// fail with an error, never a panic — on the sweep path (rtscts) and on
// the replicate path (convergence) alike.
func TestOverBudgetNodesReturnError(t *testing.T) {
	if testing.Short() {
		t.Skip("the engine counts 12000² neighbour candidates before refusing")
	}
	o := Options{Duration: sim.Second, Warmup: sim.Second / 2, Seeds: 1, Nodes: []int{12000}}
	if err := o.Validate(); err != nil {
		t.Fatalf("options must pass Validate: %v", err)
	}
	for _, run := range []Runner{RTSCTSComparison, Convergence} {
		if _, err := run(context.Background(), o); err == nil {
			t.Errorf("%d stations accepted", o.Nodes[0])
		}
	}
}
