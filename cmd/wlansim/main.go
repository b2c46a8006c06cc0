// Command wlansim runs WLAN simulations and prints summaries: either a
// single ad-hoc run assembled from flags, or a declarative scenario file
// executed through the parallel scenario runner. Every mode is a thin
// shell over the public wlan.Lab facade, and every mode cancels cleanly
// on SIGINT/SIGTERM (in-flight replications finish, the rest drain).
//
// Examples:
//
//	wlansim -scenario examples/hiddennodes.json
//	wlansim -scenario examples/unsaturated.json -quick -parallel 4
//	wlansim -scenario examples/capture.json -summary-json out.json
//	wlansim -sweep examples/sweeps/smoke.json -cache ~/.cache/wlansim-sweep -sweep-out out.jsonl
//	wlansim -sweep grid.json -shard 0/4 -cache /shared/cache -sweep-out shard0.jsonl
//	wlansim -merge merged.jsonl shard0.jsonl shard1.jsonl shard2.jsonl shard3.jsonl
//	wlansim -sweep grid.json -sweep-out out.jsonl -metrics-addr :9090 -progress
//	wlansim -scheme wTOP-CSMA -nodes 40 -duration 60s
//	wlansim -scheme 802.11 -nodes 20 -disc 16 -seed 7 -series
//	wlansim -scheme wTOP-CSMA -nodes 10 -weights 1,1,1,2,2,2,3,3,3,3
//	wlansim -scheme TORA-CSMA -nodes 40 -duration 120s -fast
//	wlansim -scheme 802.11 -nodes 40 -engine slotsim -fast
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/wlan"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "run a declarative scenario file (JSON suite or single spec) instead of flag-based config")
		quick        = flag.Bool("quick", false, "with -scenario: scale the suite for fast runs (3s simulated, ≤2 seeds) — the scale CI pins with golden summaries")
		parallel     = flag.Int("parallel", 0, "with -scenario/-sweep: replication worker count (0 = GOMAXPROCS); the aggregate is bit-identical for any value")
		summaryJSON  = flag.String("summary-json", "", "with -scenario: also write the aggregate summaries as canonical JSON to this file")
	)
	var (
		sweepPath = flag.String("sweep", "", "run a declarative sweep grid file (base scenario × axes) and stream one JSONL row per point")
		sweepOut  = flag.String("sweep-out", "", "with -sweep: write the JSONL rows to this file (default stdout), plus a <file>.meta.json run stamp")
		shardSpec = flag.String("shard", "", "with -sweep: run only shard i/N of the expanded grid (deterministic partition; merged shard outputs are byte-identical to an unsharded run)")
		cacheDir  = flag.String("cache", "", "with -sweep: content-addressed result cache directory; completed (spec, engine) points are served without re-simulating")
		mergeOut  = flag.String("merge", "", "merge shard JSONL files (the remaining arguments) into this file, restoring unsharded byte-identical order")
	)
	var (
		metricsAddr = flag.String("metrics-addr", "", "with -scenario/-sweep: serve live Prometheus metrics on this address at /metrics (e.g. :9090)")
		progress    = flag.Bool("progress", false, "with -scenario/-sweep: print a once-per-second progress line to stderr")
	)
	var (
		schemeName = flag.String("scheme", "802.11", "channel access scheme: 802.11, IdleSense, wTOP-CSMA, TORA-CSMA, or the baselines SlowDecrease, EstimateN")
		engine     = flag.String("engine", "eventsim", "simulation engine: eventsim (continuous-time, hidden-node capable) or slotsim (slot-synchronous, connected-only, fast)")
		nodes      = flag.Int("nodes", 20, "number of stations")
		disc       = flag.Float64("disc", 0, "place stations uniformly in a disc of this radius in metres (0 = fully connected circle)")
		duration   = flag.Duration("duration", 30*time.Second, "simulated run time")
		seed       = flag.Int64("seed", 1, "random seed")
		weights    = flag.String("weights", "", "comma-separated per-station weights (wTOP-CSMA only)")
		series     = flag.Bool("series", false, "print the windowed throughput/control time series")
		perNode    = flag.Bool("per-node", false, "print per-station throughput")
		rtscts     = flag.Bool("rtscts", false, "enable the RTS/CTS exchange")
		errRate    = flag.Float64("error-rate", 0, "i.i.d. data frame error rate in [0,1)")
		traceOut   = flag.String("trace", "", "write a JSONL frame capture to this file")
		fast       = flag.Bool("fast", false, "engine-speed mode: print wall-clock time and events/sec alongside the summary")
	)
	flag.Parse()
	validateFlagModes(*scenarioPath != "", *sweepPath != "", *mergeOut != "")

	// SIGINT/SIGTERM cancel the context: replications in flight finish,
	// everything else drains, and the process exits with a clean error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *mergeOut != "" {
		runMerge(*mergeOut, flag.Args())
		return
	}

	// Observability is opt-in: a metric set exists only when an
	// endpoint or progress ticker will read it, and attaching one
	// never changes results or output bytes.
	var met *wlan.Metrics
	if *metricsAddr != "" || *progress {
		met = wlan.NewMetrics()
	}
	labOpts := []wlan.LabOption{wlan.WithParallelism(*parallel)}
	if met != nil {
		labOpts = append(labOpts, wlan.WithMetrics(met))
	}
	lab := wlan.NewLab(labOpts...)
	defer lab.Close()

	if *metricsAddr != "" {
		serveMetrics(*metricsAddr, met)
	}
	if *progress {
		defer startProgress(met)()
	}

	if *sweepPath != "" {
		runSweep(ctx, lab, *sweepPath, *sweepOut, *shardSpec, *cacheDir)
		return
	}
	if *scenarioPath != "" {
		runScenario(ctx, lab, *scenarioPath, *quick, *summaryJSON)
		return
	}

	var tp *wlan.Topology
	if *disc > 0 {
		tp = wlan.HiddenDisc(*nodes, *disc, *seed)
	} else {
		tp = wlan.Connected(*nodes)
	}

	cfg := wlan.Config{
		Topology:       tp,
		Engine:         wlan.Engine(*engine),
		Scheme:         wlan.Scheme(*schemeName),
		Duration:       *duration,
		Seed:           *seed,
		RTSCTS:         *rtscts,
		FrameErrorRate: *errRate,
	}
	var traceWriter *wlan.TraceWriter
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		traceWriter = wlan.NewTraceWriter(f)
		cfg.Trace = traceWriter
	}
	if *weights != "" {
		for _, tok := range strings.Split(*weights, ",") {
			w, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				fatalf("bad weight %q: %v", tok, err)
			}
			cfg.Weights = append(cfg.Weights, w)
		}
	}

	start := time.Now()
	res, err := lab.Run(ctx, cfg)
	wall := time.Since(start)
	if err != nil {
		fatalf("%v", err)
	}
	if traceWriter != nil {
		if err := traceWriter.Close(); err != nil {
			fatalf("trace: %v", err)
		}
		fmt.Printf("trace       %d frames -> %s\n", traceWriter.Count(), *traceOut)
	}

	fmt.Printf("scheme      %s\n", *schemeName)
	fmt.Printf("stations    %d (hidden pairs: %d)\n", tp.N(), tp.HiddenPairCount())
	fmt.Printf("duration    %v simulated\n", *duration)
	fmt.Printf("throughput  %.3f Mbps (converged %.3f Mbps)\n",
		res.ThroughputMbps(), res.ConvergedThroughput(cfg.Duration/2)/1e6)
	fmt.Printf("successes   %d\n", res.Successes)
	fmt.Printf("collisions  %d (%.1f%%)\n", res.Collisions, 100*res.CollisionRate())
	fmt.Printf("idle slots  %.2f per transmission\n", res.APIdleSlots)
	fmt.Printf("fairness    Jain %.4f (weighted %.4f)\n", res.JainIndex(), res.WeightedJainIndex())
	fmt.Printf("events      %d\n", res.EventsFired)
	if *fast {
		fmt.Printf("wall        %v\n", wall.Round(time.Microsecond))
		fmt.Printf("events/sec  %.0f\n", float64(res.EventsFired)/wall.Seconds())
		fmt.Printf("speedup     %.0fx real time\n", duration.Seconds()/wall.Seconds())
	}

	if *perNode {
		fmt.Println("\nstation  weight  Mbps      successes  failures")
		for i, st := range res.Stations {
			fmt.Printf("%-7d  %-6.1f  %-8.4f  %-9d  %d\n",
				i, st.Weight, st.Throughput/1e6, st.Successes, st.Failures)
		}
	}
	if *series {
		fmt.Println("\ntime(s)  Mbps     control")
		for i, at := range res.ThroughputSeries.Times {
			ctl := ""
			if i < res.ControlSeries.Len() {
				ctl = fmt.Sprintf("%.5f", res.ControlSeries.Values[i])
			}
			fmt.Printf("%-7.2f  %-7.3f  %s\n", at.Seconds(), res.ThroughputSeries.Values[i]/1e6, ctl)
		}
	}
}

// validateFlagModes rejects flag combinations that one mode would
// silently ignore, before anything runs: -scenario, -sweep and -merge
// are mutually exclusive; single-run-only flags (-series, -per-node,
// -trace, -fast, -weights) make no sense alongside any of them; and
// the observability flags need a Lab-routed mode (-scenario/-sweep) to
// have anything to measure. Violations exit 2 with a usage message,
// matching the experiments CLI's up-front validation.
func validateFlagModes(scenarioMode, sweepMode, mergeMode bool) {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	modes := 0
	for _, on := range []bool{scenarioMode, sweepMode, mergeMode} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		usageExit("at most one of -scenario, -sweep and -merge may be given")
	}
	mode := ""
	switch {
	case scenarioMode:
		mode = "-scenario"
	case sweepMode:
		mode = "-sweep"
	case mergeMode:
		mode = "-merge"
	}
	if mode != "" {
		var bad []string
		for _, name := range []string{"series", "per-node", "trace", "fast", "weights"} {
			if set[name] {
				bad = append(bad, "-"+name)
			}
		}
		if len(bad) > 0 {
			usageExit(fmt.Sprintf("single-run-only flag(s) %s would be ignored with %s",
				strings.Join(bad, ", "), mode))
		}
	}
	if (set["metrics-addr"] || set["progress"]) && !scenarioMode && !sweepMode {
		usageExit("-metrics-addr and -progress require -scenario or -sweep")
	}
}

// usageExit reports a flag-validation failure and exits 2, the
// CLI-misuse exit code.
func usageExit(msg string) {
	fmt.Fprintf(os.Stderr, "wlansim: %s\nrun 'wlansim -h' for usage\n", msg)
	os.Exit(2)
}

// serveMetrics starts the /metrics endpoint. Listening failures are
// fatal up front (a typo'd address should not silently run an
// unobservable campaign); serve errors after that only surface on
// stderr, never abort the simulation.
func serveMetrics(addr string, met *wlan.Metrics) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatalf("metrics: %v", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", met.Handler())
	fmt.Fprintf(os.Stderr, "wlansim: serving metrics on http://%s/metrics\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintf(os.Stderr, "wlansim: metrics server: %v\n", err)
		}
	}()
}

// startProgress prints a once-per-second progress line to stderr and
// returns the stop function (which prints one final line, so short
// runs still report).
func startProgress(met *wlan.Metrics) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintln(os.Stderr, progressLine(met.Snapshot()))
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		fmt.Fprintln(os.Stderr, progressLine(met.Snapshot()))
	}
}

// progressLine renders one human-oriented status line: sweep point
// totals when a sweep is running, the replication fan-out otherwise.
func progressLine(s wlan.MetricsSnapshot) string {
	if s.PointsOwned > 0 {
		return fmt.Sprintf("progress: %d/%d points (%d simulated, %d cached), %d repl in flight, util %.0f%%, %.3g events/s",
			s.PointsSimulated+s.PointsCached, s.PointsOwned, s.PointsSimulated, s.PointsCached,
			s.ReplicationsInFlight, 100*s.Utilization, s.EventsPerSecond)
	}
	return fmt.Sprintf("progress: %d replications done, %d in flight, util %.0f%%, %.3g events/s",
		s.Replications, s.ReplicationsInFlight, 100*s.Utilization, s.EventsPerSecond)
}

// runSweep loads a sweep grid, executes (its shard of) the expanded
// cross-product through the Lab's cached sweep path and streams one
// JSONL row per point. The final stats line goes to stdout — CI greps
// its "N simulated" figure to prove cache hits — unless the rows
// themselves stream to stdout, in which case stats go to stderr.
func runSweep(ctx context.Context, lab *wlan.Lab, path, outPath, shardSpec, cacheDir string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	g, err := wlan.DecodeSweep(data)
	if err != nil {
		fatalf("%v", err)
	}
	var opts []wlan.SweepOption
	var sh wlan.Shard
	if shardSpec != "" {
		sh, err = wlan.ParseShard(shardSpec)
		if err != nil {
			fatalf("%v", err)
		}
		opts = append(opts, wlan.WithShard(sh.Index, sh.Count))
	}
	if cacheDir != "" {
		opts = append(opts, wlan.WithSweepCache(cacheDir))
	}
	out := os.Stdout
	statsOut := os.Stdout
	var tmp *os.File
	if outPath != "" {
		// A stale sidecar from an earlier run must not survive next to
		// rows it does not describe: drop it before simulating, so even
		// an interrupted run leaves no misleading provenance.
		if err := os.Remove(wlan.SweepMetaPath(outPath)); err != nil && !os.IsNotExist(err) {
			fatalf("%v", err)
		}
		// Stream rows into a temp file beside the target and rename it
		// into place only once the sweep completes: a failed or killed
		// run can never leave a truncated JSONL at outPath.
		tmp, err = os.CreateTemp(filepath.Dir(outPath), filepath.Base(outPath)+".tmp-*")
		if err != nil {
			fatalf("%v", err)
		}
		if err := tmp.Chmod(0o644); err != nil {
			fatalf("%v", err)
		}
		out = tmp
	} else {
		statsOut = os.Stderr
	}
	name := g.Name
	if name == "" {
		name = path
	}
	start := time.Now()
	st, err := lab.SweepStream(ctx, g, out, opts...)
	if err != nil {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
		fatalf("sweep %s: %v", name, err)
	}
	if tmp != nil {
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			fatalf("%v", err)
		}
		if err := os.Rename(tmp.Name(), outPath); err != nil {
			os.Remove(tmp.Name())
			fatalf("%v", err)
		}
	}
	// Stamp the run in a sidecar meta file, next to — never inside —
	// the JSONL rows, which must stay byte-identical across runs.
	if outPath != "" {
		meta := wlan.NewSweepMeta(g, sh, st, start, time.Since(start))
		if err := meta.WriteFile(wlan.SweepMetaPath(outPath)); err != nil {
			fatalf("%v", err)
		}
	}
	fmt.Fprintf(statsOut, "sweep %s: %s in %v\n", name, st, time.Since(start).Round(time.Millisecond))
}

// runMerge combines shard JSONL outputs into the byte-identical
// unsharded stream.
func runMerge(outPath string, shardPaths []string) {
	if len(shardPaths) == 0 {
		fatalf("-merge needs shard files as arguments")
	}
	var readers []*os.File
	defer func() {
		for _, f := range readers {
			f.Close()
		}
	}()
	var inputs []io.Reader
	for _, p := range shardPaths {
		f, err := os.Open(p)
		if err != nil {
			fatalf("%v", err)
		}
		readers = append(readers, f)
		inputs = append(inputs, f)
	}
	out, err := os.Create(outPath)
	if err != nil {
		fatalf("%v", err)
	}
	n, err := wlan.MergeSweeps(out, inputs...)
	if err != nil {
		out.Close()
		fatalf("%v", err)
	}
	if err := out.Close(); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("merged %d points from %d shard(s) -> %s\n", n, len(shardPaths), outPath)
}

// runScenario loads a scenario file, executes every scenario through the
// Lab's parallel runner and prints one summary line each.
func runScenario(ctx context.Context, lab *wlan.Lab, path string, quick bool, summaryPath string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	suite, err := wlan.DecodeScenarios(data)
	if err != nil {
		fatalf("%v", err)
	}
	if quick {
		suite = suite.Quick()
	}
	name := suite.Name
	if name == "" {
		name = path
	}
	scale := "full scale"
	if quick {
		scale = "quick scale"
	}
	fmt.Printf("suite %s: %d scenario(s), %s\n", name, len(suite.Scenarios), scale)
	start := time.Now()
	sums, err := lab.RunSuite(ctx, suite)
	if err != nil {
		fatalf("%v", err)
	}
	for _, s := range sums {
		fmt.Println(s)
	}
	var events uint64
	for _, s := range sums {
		events += s.Events
	}
	wall := time.Since(start)
	fmt.Printf("wall %v  events %d  events/sec %.0f\n",
		wall.Round(time.Millisecond), events, float64(events)/wall.Seconds())
	if summaryPath != "" {
		out, err := wlan.MarshalSummaries(sums)
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(summaryPath, out, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("summaries -> %s\n", summaryPath)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wlansim: "+format+"\n", args...)
	os.Exit(1)
}
