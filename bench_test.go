// Package repro's benchmark suite regenerates every table and figure of
// the paper at reduced scale (see EXPERIMENTS.md for paper-scale runs via
// cmd/experiments). Each benchmark reports the headline metric of its
// artefact via b.ReportMetric, so `go test -bench . -benchmem` doubles as
// a one-shot reproduction summary, plus ablation benches for the design
// choices called out in DESIGN.md and micro-benchmarks of the kernel.
package repro_test

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/experiment"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/slotsim"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/wlan"
)

// benchOptions keeps per-iteration cost around a second.
func benchOptions() experiment.Options {
	return experiment.Options{
		Duration: 8 * sim.Second,
		Warmup:   4 * sim.Second,
		Seeds:    1,
		Nodes:    []int{10, 40},
	}
}

// maxColMbps extracts the maximum of a table column for metric
// reporting — for sweep tables this is the curve's peak.
func maxColMbps(tb *experiment.Table, col int) float64 {
	best := 0.0
	for _, row := range tb.Rows {
		if col >= len(row) {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(row[col], &v); err != nil {
			continue
		}
		if v > best {
			best = v
		}
	}
	return best
}

// runExperiment is the shared bench body for table-producing runners.
func runExperiment(b *testing.B, runner experiment.Runner, metricCol int) {
	b.Helper()
	o := benchOptions()
	var tb *experiment.Table
	var err error
	for i := 0; i < b.N; i++ {
		tb, err = runner(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
	}
	if tb != nil {
		b.ReportMetric(maxColMbps(tb, metricCol), "Mbps")
	}
}

// BenchmarkFig1 regenerates Fig. 1 (IdleSense vs 802.11, ± hidden nodes).
func BenchmarkFig1(b *testing.B) { runExperiment(b, experiment.Fig1, 1) }

// BenchmarkFig2 regenerates Fig. 2 (throughput vs log p, connected).
func BenchmarkFig2(b *testing.B) { runExperiment(b, experiment.Fig2, 1) }

// BenchmarkTable2 regenerates Table II (weighted fairness).
func BenchmarkTable2(b *testing.B) {
	o := benchOptions()
	o.Duration, o.Warmup = 20*sim.Second, 10*sim.Second
	var tb *experiment.Table
	var err error
	for i := 0; i < b.N; i++ {
		tb, err = experiment.Table2(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(maxColMbps(tb, 2), "Mbps-total")
}

// BenchmarkFig3 regenerates Fig. 3 (all four schemes, connected).
func BenchmarkFig3(b *testing.B) { runExperiment(b, experiment.Fig3, 1) }

// BenchmarkFig4 regenerates Fig. 4 (throughput vs log p, hidden).
func BenchmarkFig4(b *testing.B) { runExperiment(b, experiment.Fig4, 1) }

// BenchmarkFig5 regenerates Fig. 5 (RandomReset vs p0, hidden).
func BenchmarkFig5(b *testing.B) { runExperiment(b, experiment.Fig5, 1) }

// BenchmarkFig6 regenerates Fig. 6 (four schemes, 16 m disc).
func BenchmarkFig6(b *testing.B) { runExperiment(b, experiment.Fig6, 1) }

// BenchmarkFig7 regenerates Fig. 7 (four schemes, 20 m disc).
func BenchmarkFig7(b *testing.B) { runExperiment(b, experiment.Fig7, 1) }

// BenchmarkTable3 regenerates Table III (idle slots and throughput).
func BenchmarkTable3(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table3(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates Figs. 8–9 (wTOP-CSMA under churn).
func BenchmarkFig8(b *testing.B) { runExperiment(b, experiment.Fig8and9, 2) }

// BenchmarkFig10 regenerates Figs. 10–11 (TORA-CSMA under churn).
func BenchmarkFig10(b *testing.B) { runExperiment(b, experiment.Fig10and11, 2) }

// BenchmarkFig12 regenerates Fig. 12 (fixed-point geometry; analytic).
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig12(context.Background(), experiment.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13 regenerates Fig. 13 (RandomReset vs p0, connected,
// model + simulation).
func BenchmarkFig13(b *testing.B) { runExperiment(b, experiment.Fig13, 1) }

// BenchmarkConvergence regenerates the convergence extension table
// (time to 90% of optimum for both controllers).
func BenchmarkConvergence(b *testing.B) {
	o := benchOptions()
	o.Duration, o.Warmup = 30*sim.Second, 15*sim.Second
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Convergence(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTSCTS regenerates the RTS/CTS extension comparison.
func BenchmarkRTSCTS(b *testing.B) {
	runExperiment(b, experiment.RTSCTSComparison, 1)
}

// BenchmarkLadder regenerates the baseline-policy ladder.
func BenchmarkLadder(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.BaselineLadder(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEngines compares the event-driven engine against the
// slotted engine on the identical connected workload — the cost of
// hidden-node capability.
func BenchmarkAblationEngines(b *testing.B) {
	const n = 20
	const p = 0.02
	b.Run("eventsim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ps := make([]mac.Policy, n)
			for j := range ps {
				ps[j] = mac.NewPPersistent(1, p)
			}
			s, err := eventsim.New(eventsim.Config{
				Topology: topo.New(topo.Point{}, topo.CircleEdge(n, 8), topo.PaperRadii()),
				Policies: ps,
				Seed:     int64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			res := s.Run(5 * sim.Second)
			b.ReportMetric(res.ThroughputMbps(), "Mbps")
		}
	})
	b.Run("slotsim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ps := make([]mac.Policy, n)
			for j := range ps {
				ps[j] = mac.NewPPersistent(1, p)
			}
			s, err := slotsim.New(slotsim.Config{Policies: ps, Seed: int64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			res := s.Run(5 * sim.Second)
			b.ReportMetric(res.Throughput/1e6, "Mbps")
		}
	})
}

// BenchmarkSlotSimBianchi measures the slotted engine in the regime the
// bucketed backoff tracker targets: many DCF (window-policy) stations,
// where the pre-tracker loop paid an O(N) counter scan and an O(N)
// decrement per busy period and a per-station resume pass on top.
func BenchmarkSlotSimBianchi(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ps := make([]mac.Policy, n)
				for j := range ps {
					ps[j] = mac.NewStandardDCF(16, 1024)
				}
				s, err := slotsim.New(slotsim.Config{Policies: ps, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				res := s.Run(5 * sim.Second)
				b.ReportMetric(res.Throughput/1e6, "Mbps")
			}
		})
	}
}

// BenchmarkTopologyBuild measures topology construction across the
// scale tier. paper512 is the old dense cap with full adjacency
// materialised; circle100k is the slotted tier's fully connected layout,
// answered by the bounding-box fast path without ever building
// neighbour lists; disc100k spreads 100k stations over a 2 km disc and
// materialises the sparse CSR adjacency the grid index prunes down to
// O(n·degree).
func BenchmarkTopologyBuild(b *testing.B) {
	b.Run("paper512", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng := sim.NewRNG(int64(i + 1))
			tp := topo.New(topo.Point{}, topo.UniformDisc(512, 16, rng), topo.PaperRadii())
			if err := tp.EnsureAdjacency(topo.DefaultAdjacencyBudget); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("circle100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tp := topo.New(topo.Point{}, topo.CircleEdge(100_000, 8), topo.PaperRadii())
			if !tp.FullyConnected() || tp.HiddenPairCount() != 0 {
				b.Fatal("circle topology must be fully connected")
			}
		}
	})
	b.Run("disc100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng := sim.NewRNG(int64(i + 1))
			tp := topo.New(topo.Point{}, topo.UniformDisc(100_000, 2000, rng), topo.PaperRadii())
			if err := tp.EnsureAdjacency(topo.DefaultAdjacencyBudget); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSlotSimScaleTier runs the slotted engine at the 100k-station
// scale tier: population-scaled fixed windows (W = n keeps the
// aggregate attempt rate near two per slot), every counter in the
// tracker's widened ring, and a per-busy-period cost that no longer
// depends on n. Most of the per-op cost is arena setup — allocating
// 100k policies, station records and 16-byte RNGs; seeding each RNG is
// ~5 ns — with the 2 simulated seconds a few milliseconds on top.
func BenchmarkSlotSimScaleTier(b *testing.B) {
	const n = 100_000
	for i := 0; i < b.N; i++ {
		ps := make([]mac.Policy, n)
		for j := range ps {
			ps[j] = mac.NewStandardDCF(n, n)
		}
		s, err := slotsim.New(slotsim.Config{Policies: ps, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		res := s.Run(2 * sim.Second)
		b.ReportMetric(res.Throughput/1e6, "Mbps")
	}
}

// BenchmarkAblationGains compares Kiefer–Wolfowitz gain schedules on the
// analytic closed loop: the paper's (1/k, k^-1/3) against a faster-
// annealing and a slower-annealing alternative.
func BenchmarkAblationGains(b *testing.B) {
	schedules := map[string]core.PowerGains{
		"paper-a1.0-b0.33": core.PaperGains(),
		"a1.0-b0.45":       {A0: 1, AExp: 1, B0: 1, BExp: 0.45},
		"a0.9-b0.35":       {A0: 1, AExp: 0.9, B0: 1, BExp: 0.35},
	}
	mdl := model.PPersistent{PHY: model.PaperPHY()}
	w := model.UnitWeights(20)
	opt := mdl.MaxThroughput(w)
	for name, g := range schedules {
		g := g
		b.Run(name, func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				noise := rand.New(rand.NewPCG(uint64(i+1), 0))
				ctl := core.NewWTOP(core.WTOPConfig{Gains: g, Scale: mdl.PHY.BitRate})
				for k := 0; k < 400; k++ {
					s := mdl.SystemThroughput(ctl.Control().P, w)
					ctl.OnWindowEnd(s * (1 + 0.05*noise.NormFloat64()))
				}
				final = mdl.SystemThroughput(ctl.Control().P, w)
			}
			b.ReportMetric(100*final/opt, "%-of-optimum")
		})
	}
}

// BenchmarkAblationUpdatePeriod sweeps the controller window Δ — the
// variance/iteration-rate trade-off discussed in Section III-C.
func BenchmarkAblationUpdatePeriod(b *testing.B) {
	for _, period := range []sim.Duration{50 * sim.Millisecond, 250 * sim.Millisecond, 1000 * sim.Millisecond} {
		period := period
		b.Run(period.String(), func(b *testing.B) {
			var conv float64
			for i := 0; i < b.N; i++ {
				phy := model.PaperPHY()
				ps := make([]mac.Policy, 20)
				for j := range ps {
					ps[j] = mac.NewPPersistent(1, 0.1)
				}
				s, err := slotsim.New(slotsim.Config{
					PHY:          phy,
					Policies:     ps,
					Controller:   core.NewWTOP(core.WTOPConfig{Scale: phy.BitRate}),
					UpdatePeriod: period,
					Seed:         int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				res := s.Run(60 * sim.Second)
				conv = res.ThroughputSeries.MeanAfter(sim.Time(30 * sim.Second))
			}
			b.ReportMetric(conv/1e6, "Mbps")
		})
	}
}

// BenchmarkEventQueue measures the kernel's event scheduling throughput
// on the AfterArg path the simulators' hot loops use: a pre-bound func
// value plus a pointer argument, no closure per event. Steady state must
// report 0 allocs/op (see the AllocsPerRun guardrails in internal/sim).
func BenchmarkEventQueue(b *testing.B) {
	s := sim.NewScheduler()
	rng := sim.NewRNG(1)
	type payload struct{ count int }
	arg := &payload{}
	var reschedule func(any)
	reschedule = func(a any) {
		p := a.(*payload)
		p.count++
		if p.count < b.N {
			s.AfterArg(sim.Duration(rng.Intn(1000)+1), reschedule, a)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 64 && i < b.N; i++ {
		s.AfterArg(sim.Duration(rng.Intn(1000)+1), reschedule, arg)
	}
	for s.Step() {
	}
}

// BenchmarkEventCancel measures the schedule→cancel→collect cycle that
// dominates frozen-backoff churn in eventsim.
func BenchmarkEventCancel(b *testing.B) {
	s := sim.NewScheduler()
	noop := func(any) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := s.AfterArg(1, noop, nil)
		r.Cancel()
		s.Step()
	}
}

// BenchmarkGeometricDraw measures the geometric backoff draw of
// p-persistent CSMA: one uniform, ln(1-p), and the inverse transform.
func BenchmarkGeometricDraw(b *testing.B) {
	const p = 0.02
	rng := sim.NewRNG(1)
	b.ReportAllocs()
	acc := 0
	for i := 0; i < b.N; i++ {
		acc += rng.Geometric(p)
	}
	_ = acc
}

// BenchmarkEventSimThroughput measures wall-clock cost per simulated
// second of the full event-driven stack at N = 40.
func BenchmarkEventSimThroughput(b *testing.B) {
	lab := wlan.NewLab()
	defer lab.Close()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := lab.Run(context.Background(), wlan.Config{
			Topology: wlan.Connected(40),
			Scheme:   wlan.TORACSMA,
			Duration: 2e9, // 2 s simulated
			Seed:     int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		events += res.EventsFired
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// BenchmarkSweepSmoke streams the checked-in CI smoke sweep (16 points
// × 2 replications of 500 ms runs) through the pipelined executor —
// the end-to-end cost of the sweep path: expansion, the shared worker
// pool with per-worker simulator arenas, in-order JSONL emission.
func BenchmarkSweepSmoke(b *testing.B) {
	data, err := os.ReadFile("examples/sweeps/smoke.json")
	if err != nil {
		b.Fatal(err)
	}
	g, err := sweep.Decode(data)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		st, err := (&sweep.Runner{}).Stream(context.Background(), g, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if st.Simulated != st.Total {
			b.Fatalf("expected all %d points simulated, got %+v", st.Total, st)
		}
	}
}

// BenchmarkSweep120 pipelines a 120-point grid of fast (100 ms, one
// seed) runs — the PR-3 acceptance shape, dominated by per-point
// overhead rather than simulation, which is exactly what arena reuse
// and barrier-free scheduling target.
func BenchmarkSweep120(b *testing.B) {
	g := sweep120Grid()
	for i := 0; i < b.N; i++ {
		st, err := (&sweep.Runner{}).Stream(context.Background(), g, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if st.Simulated != 120 {
			b.Fatalf("expected 120 simulated points, got %+v", st)
		}
	}
}

// sweep120Grid is BenchmarkSweep120's grid: 4 schemes × 5 node counts
// × 3 frame-error rates × RTS/CTS on and off.
func sweep120Grid() *sweep.Grid {
	return &sweep.Grid{
		Name: "bench120",
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.TopoConnected},
			Duration: scenario.Duration(100e6),
			Seeds:    1,
		},
		Axes: []sweep.Axis{
			{Field: sweep.FieldScheme, Values: sweep.Strings("802.11", "IdleSense", "wTOP-CSMA", "TORA-CSMA")},
			{Field: sweep.FieldNodes, Values: sweep.Ints(2, 3, 4, 5, 6)},
			{Field: sweep.FieldFrameErrorRate, Values: sweep.Floats(0, 0.05, 0.1)},
			{Field: sweep.FieldRTSCTS, Values: sweep.Bools(false, true)},
		},
	}
}

// BenchmarkSweepResume streams the Sweep120 grid from a warm cache,
// filled before the timer starts: the resume path, which reads and
// checks each entry and splices its summary bytes into the row.
func BenchmarkSweepResume(b *testing.B) {
	g := sweep120Grid()
	cache, err := sweep.OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	r := &sweep.Runner{Cache: cache}
	if _, err := r.Stream(context.Background(), g, io.Discard); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := r.Stream(context.Background(), g, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if st.Cached != st.Total {
			b.Fatalf("expected all %d points cached, got %+v", st.Total, st)
		}
	}
}

// BenchmarkScenarioReplications measures the runner's steady state —
// one spec, many replications through the persistent pool with arena
// reuse — at a single worker so the per-replication cost is visible.
func BenchmarkScenarioReplications(b *testing.B) {
	r := scenario.Runner{Parallelism: 1}
	defer r.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := &scenario.Spec{
			Name:     "bench",
			Topology: scenario.TopologySpec{Kind: scenario.TopoConnected, N: 10},
			Duration: scenario.Duration(200e6),
			Seeds:    8,
		}
		if _, err := r.Run(context.Background(), sp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFixedPoint measures the RandomReset fixed-point solver.
func BenchmarkFixedPoint(b *testing.B) {
	rr := model.RandomReset{PHY: model.PaperPHY(), Backoff: model.PaperBackoff(), N: 40}
	for i := 0; i < b.N; i++ {
		if _, _, err := rr.FixedPointJP(i%7, float64(i%11)/10); err != nil {
			b.Fatal(err)
		}
	}
}
