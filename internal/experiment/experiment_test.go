package experiment

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/eventsim"
	"repro/internal/scenario"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/traffic"
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
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
	if err := Quick().Validate(); err != nil {
		t.Errorf("Quick() invalid: %v", err)
	}
	if err := Paper().Validate(); err != nil {
		t.Errorf("Paper() invalid: %v", err)
	}
	// Every simulated artefact refuses invalid options before it runs.
	for _, e := range Experiments() {
		if _, err := e.Run(context.Background(), Options{Duration: 1, Seeds: 1, Nodes: []int{5}}); (err == nil) != (e.ID == "fig12") {
			t.Errorf("%s: 1ns duration gave %v", e.ID, err)
		}
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

// runDetailed runs sp with per-run detail through the scenario runner,
// the one replication path of every artefact.
func runDetailed(t *testing.T, sp scenario.Spec) *scenario.Summary {
	t.Helper()
	sp.Detail = true
	r := &scenario.Runner{}
	defer r.Close()
	sum, err := r.Run(context.Background(), &sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Runs) != sp.Seeds {
		t.Fatalf("%d runs for %d seeds", len(sum.Runs), sp.Seeds)
	}
	return sum
}

// runDetail is the RunDetail the runner reports for the engine result res.
func runDetail(res *eventsim.Result) scenario.RunDetail {
	d := scenario.RunDetail{
		Throughput: scenario.Series{Times: res.ThroughputSeries.Times, Values: res.ThroughputSeries.Values},
		Control:    scenario.Series{Times: res.ControlSeries.Times, Values: res.ControlSeries.Values},
		Active:     scenario.Series{Times: res.ActiveSeries.Times, Values: res.ActiveSeries.Values},
	}
	for _, st := range res.Stations {
		d.StationThroughput = append(d.StationThroughput, st.Throughput)
	}
	return d
}

// The runner must run the spec it validates: RTS/CTS, frame errors,
// traffic and the controller window reach the engine exactly as an
// eventsim configuration built from the full spec has them, and a churn
// step at t=0 becomes the initial active count.
func TestReplicateHonoursSpec(t *testing.T) {
	sp := baseSpec(Options{Duration: 400 * sim.Millisecond, Seeds: 2}, withN(disc16, 6))
	sp.Scheme = scheme.WTOP
	sp.RTSCTS = true
	sp.FrameErrorRate = 0.1
	sp.UpdatePeriod = scenario.Duration(50 * time.Millisecond)
	sp.Traffic = []scenario.TrafficSpec{{Model: "poisson", Rate: 400}}
	sp.Churn = []scenario.ChurnStep{{At: 0, Active: 4}, {At: scenario.Duration(200 * time.Millisecond), Active: 6}}
	sum := runDetailed(t, sp)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	var successes, frameErrors, arrived int64
	var events uint64
	for r, got := range sum.Runs {
		seed := sp.Seed + int64(r)
		tp, err := scenario.BuildTopology(&sp.Topology, seed)
		if err != nil {
			t.Fatal(err)
		}
		policies, controller, err := scheme.Build(sp.Scheme, nil, tp.N())
		if err != nil {
			t.Fatal(err)
		}
		arrivals := make([]traffic.Spec, tp.N())
		for i := range arrivals {
			arrivals[i] = traffic.Spec{Kind: traffic.Poisson, Rate: 400}
		}
		s, err := eventsim.New(eventsim.Config{
			Topology:       tp,
			Policies:       policies,
			Controller:     controller,
			UpdatePeriod:   50 * sim.Millisecond,
			Seed:           seed,
			RTSCTS:         true,
			FrameErrorRate: 0.1,
			Arrivals:       arrivals,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetActiveAt(0, 4); err != nil {
			t.Fatal(err)
		}
		if err := s.SetActiveAt(sim.Time(200*sim.Millisecond), 6); err != nil {
			t.Fatal(err)
		}
		want := s.Run(400 * sim.Millisecond)
		if want.FrameErrors == 0 || want.Latency.Count() == 0 {
			t.Fatalf("seed %d: reference run shows no frame errors or latency samples", seed)
		}
		if !reflect.DeepEqual(got, runDetail(want)) {
			t.Errorf("seed %d: the runner's run differs from the full-spec run", seed)
		}
		successes += want.Successes
		frameErrors += want.FrameErrors
		arrived += want.PacketsArrived
		events += want.EventsFired
	}
	if sum.Successes != successes || sum.FrameErrors != frameErrors || sum.PacketsArrived != arrived || sum.Events != events {
		t.Errorf("runner sums %d successes, %d frame errors, %d arrivals, %d events; the full-spec runs %d, %d, %d, %d",
			sum.Successes, sum.FrameErrors, sum.PacketsArrived, sum.Events, successes, frameErrors, arrived, events)
	}
}

// TestReplicateMatchesRunnerOnChurnAtZero pins one churn rule for one
// spec: a churn step at t=0 gives the runner the successes of an engine
// run that starts with that many active stations, and per-run detail
// leaves the aggregate as it is.
func TestReplicateMatchesRunnerOnChurnAtZero(t *testing.T) {
	sp := baseSpec(Options{Duration: time.Second, Seeds: 2}, withN(connected, 10))
	sp.Scheme = scheme.WTOP
	sp.Churn = []scenario.ChurnStep{{At: 0, Active: 4}, {At: scenario.Duration(500 * time.Millisecond), Active: 10}}
	detailed := runDetailed(t, sp)
	var want int64
	for r := range sp.Seeds {
		seed := sp.Seed + int64(r)
		tp, err := scenario.BuildTopology(&sp.Topology, seed)
		if err != nil {
			t.Fatal(err)
		}
		policies, controller, err := scheme.Build(sp.Scheme, nil, tp.N())
		if err != nil {
			t.Fatal(err)
		}
		s, err := eventsim.New(eventsim.Config{Topology: tp, Policies: policies, Controller: controller, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetActiveAt(0, 4); err != nil {
			t.Fatal(err)
		}
		if err := s.SetActiveAt(sim.Time(500*sim.Millisecond), 10); err != nil {
			t.Fatal(err)
		}
		want += s.Run(sim.Second).Successes
	}
	if detailed.Successes != want {
		t.Errorf("the runner gave %d successes, the engine %d", detailed.Successes, want)
	}
	r := &scenario.Runner{}
	defer r.Close()
	plain, err := r.Run(context.Background(), &sp)
	if err != nil {
		t.Fatal(err)
	}
	detailed.Runs = nil
	if !reflect.DeepEqual(plain, detailed) {
		t.Errorf("per-run detail changed the aggregate:\n%+v\nvs\n%+v", plain, detailed)
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
	rows, err := runGrid(context.Background(), o, churnGrid(o, scheme.WTOP), 2)
	if err != nil {
		t.Fatal(err)
	}
	// The active-node series must step through the schedule values.
	seen := map[int]bool{}
	for _, v := range rows[0][0].Runs[0].Active.Values {
		seen[int(v)] = true
	}
	for _, n := range churnPhases {
		if !seen[n] {
			t.Errorf("active series never showed %d stations", n)
		}
	}
}

// Node counts that pass Validate but whose neighbour lists exceed the
// event engine's adjacency budget (n(n−1) > 134,217,728 entries) must
// fail with an error, never a panic — for aggregate cells (rtscts) and
// per-run detail cells (convergence) alike.
func TestOverBudgetNodesReturnError(t *testing.T) {
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
