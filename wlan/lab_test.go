package wlan

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/eventsim"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func testScenario(name string, seeds int) Scenario {
	return Scenario{
		Name:     name,
		Scheme:   string(TORACSMA),
		Topology: TopologySpec{Kind: TopoDisc, N: 8, Radius: 16},
		Traffic:  []TrafficSpec{PoissonTraffic(200)},
		Duration: Duration(2 * time.Second),
		Seeds:    seeds,
	}
}

func testGrid() *Grid {
	return &Grid{
		Name: "labgrid",
		Base: Scenario{
			Topology: TopologySpec{Kind: TopoConnected},
			Duration: Duration(time.Second),
		},
		Axes: []Axis{
			{Field: FieldScheme, Values: Strings(string(DCF), string(WTOPCSMA))},
			{Field: FieldNodes, Values: Ints(3, 5)},
		},
	}
}

// oneShot is the reference for Lab.Run's chunked stepping: cfg on a
// directly built event engine, churn scheduled, advanced by a single
// uninterrupted Run call.
func oneShot(t *testing.T, cfg Config) *Result {
	t.Helper()
	sp, ec, err := assemble(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := eventsim.New(ec)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range sp.Churn {
		if err := s.SetActiveAt(sim.Time(step.At), step.Active); err != nil {
			t.Fatal(err)
		}
	}
	return s.Run(sim.Duration(sp.Duration))
}

// Lab.Run must be bit-identical to a single uninterrupted engine Run
// call: the context-polling chunked stepping is invisible in the
// Result.
func TestLabRunMatchesOneShot(t *testing.T) {
	cfg := Config{
		Topology: Connected(8),
		Scheme:   WTOPCSMA,
		Duration: 4 * time.Second,
		Churn:    []ChurnStep{{At: Duration(time.Second), Active: 5}},
	}
	lab := NewLab()
	defer lab.Close()
	viaLab, err := lab.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct := oneShot(t, cfg); !reflect.DeepEqual(viaLab, direct) {
		t.Errorf("Lab.Run diverged from a one-shot engine run:\n%+v\nvs\n%+v", viaLab, direct)
	}
}

// The slot engine through the facade: chunked stepping bit-identical to
// a direct one-shot slotsim run, per-station stats consistent, and the
// continuous-time-only features rejected with ErrInvalidConfig.
func TestLabRunSlotEngine(t *testing.T) {
	lab := NewLab()
	defer lab.Close()
	cfg := Config{
		Topology: Connected(12),
		Engine:   EngineSlot,
		Scheme:   TORACSMA,
		Duration: 3 * time.Second,
	}
	res, err := lab.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Successes == 0 || res.ThroughputMbps() <= 0 {
		t.Fatalf("slot run made no progress: %+v", res)
	}
	var perStation int64
	for _, st := range res.Stations {
		perStation += st.Successes
	}
	if perStation != res.Successes {
		t.Errorf("per-station successes %d != total %d", perStation, res.Successes)
	}
	if j := res.JainIndex(); j <= 0 || j > 1 {
		t.Errorf("Jain index %v outside (0, 1]", j)
	}

	// Cross-engine sanity: the engines' own agreement tests pin 5% on
	// long matched runs; at this short scale just require the same
	// ballpark.
	evCfg := cfg
	evCfg.Engine = EngineEvent
	ev, err := lab.Run(context.Background(), evCfg)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := res.Throughput / ev.Throughput; ratio < 0.85 || ratio > 1.15 {
		t.Errorf("slot/event throughput ratio %.3f outside 15%%", ratio)
	}

	for _, bad := range []Config{
		{Topology: Connected(4), Engine: EngineSlot, RTSCTS: true},
		{Topology: Connected(4), Engine: EngineSlot, FrameErrorRate: 0.1},
		{Topology: Connected(4), Engine: EngineSlot, Churn: []ChurnStep{{Active: 2}}},
		{Topology: Custom([]Point{{X: -15}, {X: 15}}), Engine: EngineSlot}, // hidden pair
		{Topology: Connected(4), Engine: Engine("quantum")},
	} {
		if _, err := lab.Run(context.Background(), bad); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("config %+v: err = %v, want ErrInvalidConfig", bad, err)
		}
	}
}

// A reused Lab must hand back exactly what fresh one-shot executions
// would, across all three entry points and in any order.
func TestLabReuseBitIdentical(t *testing.T) {
	ctx := context.Background()
	lab := NewLab(WithParallelism(4))
	defer lab.Close()

	// One-shot references, each on fresh machinery.
	refRunner := scenario.Runner{Parallelism: 1}
	defer refRunner.Close()
	refSum, err := refRunner.Run(ctx, func() *Scenario { sc := testScenario("reuse", 3); return &sc }())
	if err != nil {
		t.Fatal(err)
	}
	refPoints, _, err := (&sweep.Runner{}).Run(ctx, testGrid())
	if err != nil {
		t.Fatal(err)
	}

	// Interleave the three shapes on one Lab, twice over.
	for round := 0; round < 2; round++ {
		sum, err := lab.RunScenario(ctx, testScenario("reuse", 3))
		if err != nil {
			t.Fatal(err)
		}
		assertSummariesEqual(t, refSum, sum)

		if _, err := lab.Run(ctx, Config{Topology: Connected(5), Duration: time.Second}); err != nil {
			t.Fatal(err)
		}

		var got []*SweepPoint
		for pt, err := range lab.Sweep(ctx, testGrid()) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, pt)
		}
		if len(got) != len(refPoints) {
			t.Fatalf("round %d: %d sweep points, want %d", round, len(got), len(refPoints))
		}
		for i := range got {
			if got[i].Name != refPoints[i].Name || got[i].Key != refPoints[i].Key {
				t.Fatalf("round %d: point %d is (%s, %s), want (%s, %s)",
					round, i, got[i].Name, got[i].Key, refPoints[i].Name, refPoints[i].Key)
			}
			assertSummariesEqual(t, refPoints[i].Summary, got[i].Summary)
		}
	}
}

func assertSummariesEqual(t *testing.T, want, got *Summary) {
	t.Helper()
	wj, err := MarshalSummaries([]*Summary{want})
	if err != nil {
		t.Fatal(err)
	}
	gj, err := MarshalSummaries([]*Summary{got})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wj, gj) {
		t.Errorf("summaries differ:\n%s\nvs\n%s", wj, gj)
	}
}

// Cancellation mid-batch: RunScenario returns ErrCanceled (and the
// context's own error), the pool drains, and no goroutines leak.
func TestLabCancellationNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	lab := NewLab(WithParallelism(2))
	ctx, cancel := context.WithCancel(context.Background())
	sc := testScenario("cancelled", 400)
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := lab.RunScenario(ctx, sc)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v does not also match context.Canceled", err)
	}
	if err := lab.Close(); err != nil {
		t.Fatal(err)
	}

	// The worker pool must be gone: poll the goroutine count back down
	// to (near) the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Close — leak", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Lab.Run polls the context mid-simulation: a deadline far shorter than
// the run aborts it promptly with ErrCanceled.
func TestLabRunCancelsMidSimulation(t *testing.T) {
	lab := NewLab()
	defer lab.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := lab.Run(ctx, Config{Topology: Connected(30), Duration: 10 * time.Minute})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err = lab.Run(ctx2, Config{Topology: Connected(10), Duration: 10 * time.Minute})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	// 10 simulated minutes of 30 saturated stations takes far longer
	// than a second of wall clock; returning quickly proves the mid-run
	// poll, with generous slack for loaded CI machines.
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("cancellation took %v — mid-run polling broken", wall)
	}
}

// Typed sentinel round-trips across every entry point.
func TestLabTypedErrors(t *testing.T) {
	ctx := context.Background()
	lab := NewLab()

	if _, err := lab.RunScenario(ctx, Scenario{Topology: TopologySpec{Kind: "torus", N: 2}}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("bad scenario: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := lab.Run(ctx, Config{}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("missing topology: err = %v, want ErrInvalidConfig", err)
	}
	for _, engine := range []Engine{EngineEvent, EngineSlot} {
		for _, w := range [][]float64{{1, 0, 1}, {1, math.NaN(), 1}, {1, math.Inf(1), 1}, {1, 1}} {
			cfg := Config{Topology: Connected(3), Engine: engine, Scheme: WTOPCSMA, Weights: w, Duration: time.Second}
			if _, err := lab.Run(ctx, cfg); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("%s with weights %v: err = %v, want ErrInvalidConfig", engine, w, err)
			}
		}
	}
	if _, err := DecodeScenarios([]byte(`{"topology":{"kind":"connected","n":-3}}`)); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("bad scenario file: want ErrInvalidConfig")
	}
	if _, err := ParseShard("1/x"); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("bad shard: want ErrInvalidConfig")
	}
	for _, err := range collectSweepErrs(lab.Sweep(ctx, &Grid{Base: Scenario{}, Axes: []Axis{{Field: "bogus", Values: Ints(1)}}})) {
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("bad grid: err = %v, want ErrInvalidConfig", err)
		}
	}

	lab.Close()
	if _, err := lab.Run(ctx, Config{Topology: Connected(2)}); !errors.Is(err, ErrClosed) {
		t.Errorf("Run after Close: err = %v, want ErrClosed", err)
	}
	if _, err := lab.RunScenario(ctx, testScenario("late", 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("RunScenario after Close: err = %v, want ErrClosed", err)
	}
	for _, err := range collectSweepErrs(lab.Sweep(ctx, testGrid())) {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Sweep after Close: err = %v, want ErrClosed", err)
		}
	}
	if err := lab.Close(); err != nil { // idempotent
		t.Errorf("second Close: %v", err)
	}
}

func collectSweepErrs(seq func(func(*SweepPoint, error) bool)) []error {
	var errs []error
	seq(func(pt *SweepPoint, err error) bool {
		if err != nil {
			errs = append(errs, err)
		}
		return true
	})
	if len(errs) == 0 {
		errs = append(errs, nil)
	}
	return errs
}

// Breaking out of a Sweep iteration aborts the sweep cleanly: the
// remaining points drain, the Lab stays usable, and no further yields
// happen.
func TestLabSweepEarlyBreak(t *testing.T) {
	ctx := context.Background()
	lab := NewLab()
	defer lab.Close()
	seen := 0
	for pt, err := range lab.Sweep(ctx, testGrid()) {
		if err != nil {
			t.Fatal(err)
		}
		_ = pt
		seen++
		if seen == 1 {
			break
		}
	}
	if seen != 1 {
		t.Fatalf("saw %d points after break", seen)
	}
	// The Lab (and its pool) must still work.
	if _, err := lab.RunScenario(ctx, testScenario("afterbreak", 1)); err != nil {
		t.Fatalf("Lab unusable after sweep break: %v", err)
	}
}

// A Sweep loop body runs on the goroutine doing the range, not on a
// pool worker: its panic reaches the caller's recover, and the same Lab
// then sweeps the grid again with bit-identical points.
func TestLabSweepBodyPanicReachesCaller(t *testing.T) {
	ctx := context.Background()
	lab := NewLab(WithParallelism(2))
	defer lab.Close()
	func() {
		defer func() {
			if r := recover(); r != "loop body" {
				t.Errorf("recovered %v, want the loop body's panic", r)
			}
		}()
		for range lab.Sweep(ctx, testGrid()) {
			panic("loop body")
		}
	}()

	refPoints, _, err := (&sweep.Runner{}).Run(ctx, testGrid())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for pt, err := range lab.Sweep(ctx, testGrid()) {
		if err != nil {
			t.Fatal(err)
		}
		if pt.Key != refPoints[i].Key {
			t.Fatalf("point %d key %s, want %s", i, pt.Key, refPoints[i].Key)
		}
		assertSummariesEqual(t, refPoints[i].Summary, pt.Summary)
		i++
	}
	if i != len(refPoints) {
		t.Fatalf("%d points after the panic, want %d", i, len(refPoints))
	}
}

// A Sweep loop body may re-enter the Lab even when the pool has a
// single worker: the body does not hold that worker.
func TestLabSweepBodyMayReenterLab(t *testing.T) {
	ctx := context.Background()
	lab := NewLab(WithParallelism(1))
	defer lab.Close()
	seen := 0
	for _, err := range lab.Sweep(ctx, testGrid()) {
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lab.RunScenario(ctx, testScenario("inner", 1)); err != nil {
			t.Fatalf("RunScenario inside the loop body: %v", err)
		}
		seen++
	}
	if want := 4; seen != want {
		t.Fatalf("saw %d points, want %d", seen, want)
	}
}

// Sweep caching and sharding through the facade: a cached re-run
// simulates nothing and returns identical summaries; two shards
// partition the grid exactly.
func TestLabSweepCacheAndShard(t *testing.T) {
	ctx := context.Background()
	lab := NewLab()
	defer lab.Close()
	dir := t.TempDir()

	var cold, warm SweepStats
	var first []*SweepPoint
	for pt, err := range lab.Sweep(ctx, testGrid(), WithSweepCache(dir), WithSweepStats(&cold)) {
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, pt)
	}
	if cold.Simulated != cold.Owned || cold.Cached != 0 {
		t.Fatalf("cold stats %+v", cold)
	}
	var second []*SweepPoint
	for pt, err := range lab.Sweep(ctx, testGrid(), WithSweepCache(dir), WithSweepStats(&warm)) {
		if err != nil {
			t.Fatal(err)
		}
		second = append(second, pt)
	}
	if warm.Simulated != 0 || warm.Cached != warm.Owned {
		t.Fatalf("warm stats %+v — cache misses on identical grid", warm)
	}
	for i := range first {
		assertSummariesEqual(t, first[i].Summary, second[i].Summary)
	}

	var s0, s1 SweepStats
	var shardNames []string
	for pt, err := range lab.Sweep(ctx, testGrid(), WithShard(0, 2), WithSweepStats(&s0)) {
		if err != nil {
			t.Fatal(err)
		}
		shardNames = append(shardNames, pt.Name)
	}
	for pt, err := range lab.Sweep(ctx, testGrid(), WithShard(1, 2), WithSweepStats(&s1)) {
		if err != nil {
			t.Fatal(err)
		}
		shardNames = append(shardNames, pt.Name)
	}
	if s0.Owned+s1.Owned != s0.Total || s0.Total != s1.Total {
		t.Fatalf("shards do not partition: %+v / %+v", s0, s1)
	}
	if len(shardNames) != s0.Total {
		t.Fatalf("%d shard points for total %d", len(shardNames), s0.Total)
	}
}

// SweepStream through the facade emits exactly the canonical JSONL the
// internal sweep runner streams.
func TestLabSweepStreamMatchesInternal(t *testing.T) {
	ctx := context.Background()
	lab := NewLab()
	defer lab.Close()
	var viaLab, viaInternal bytes.Buffer
	if _, err := lab.SweepStream(ctx, testGrid(), &viaLab); err != nil {
		t.Fatal(err)
	}
	if _, err := (&sweep.Runner{}).Stream(ctx, testGrid(), &viaInternal); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaLab.Bytes(), viaInternal.Bytes()) {
		t.Errorf("facade JSONL differs from internal stream:\n%s\nvs\n%s", viaLab.Bytes(), viaInternal.Bytes())
	}
}

// Unsaturated traffic through the single-run Config: the facade's
// Traffic field drives the engines' arrival processes.
// A topology without stations is invalid on both engines, whatever
// traffic list comes with it: the one assembly rejects it before either
// engine is built, so neither runs an empty network nor judges the
// traffic by its station count.
func TestLabRunRejectsStationlessTopology(t *testing.T) {
	lab := NewLab()
	defer lab.Close()
	for _, engine := range []Engine{EngineEvent, EngineSlot} {
		for _, traffic := range [][]TrafficSpec{nil, {{Model: "bogus"}}, {PoissonTraffic(-1)}} {
			cfg := Config{Topology: Connected(0), Engine: engine, Traffic: traffic, Duration: time.Second}
			if _, err := lab.Run(context.Background(), cfg); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("%s with traffic %+v: err = %v, want ErrInvalidConfig", engine, traffic, err)
			}
		}
	}
}

// Lab.Run judges a Config by the scenario rules on both engines. Each
// config below is refused by every scenario, and each was once run by
// the engines (a negative duration returned an empty Result). The
// context is cancelled up front: a config let through fails with
// ErrCanceled at once instead of simulating a day.
func TestLabRunScenarioRules(t *testing.T) {
	lab := NewLab()
	defer lab.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		cfg     Config
		engines []Engine
	}{
		{"negative duration", Config{Duration: -time.Second}, nil},
		{"duration over 24h", Config{Duration: 25 * time.Hour}, nil},
		{"window under 1ms", Config{Scheme: WTOPCSMA, Duration: time.Second, UpdatePeriod: time.Microsecond}, nil},
		{"window longer than the run", Config{Scheme: WTOPCSMA, Duration: time.Second, UpdatePeriod: 2 * time.Second}, nil},
		// The slot engine refuses churn of any kind.
		{"churn step after the end", Config{Duration: time.Second, Churn: []ChurnStep{{At: Duration(5 * time.Second), Active: 2}}}, []Engine{EngineEvent}},
		// The event engine's topology check refuses it too.
		{"station beyond 16 m", Config{Topology: Custom([]Point{{X: 17}}), Duration: time.Second}, []Engine{EngineSlot}},
	} {
		engines := tc.engines
		if engines == nil {
			engines = []Engine{EngineEvent, EngineSlot}
		}
		for _, engine := range engines {
			cfg := tc.cfg
			cfg.Engine = engine
			if cfg.Topology == nil {
				cfg.Topology = Connected(4)
			}
			if _, err := lab.Run(ctx, cfg); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("%s on %s: err = %v, want ErrInvalidConfig", tc.name, engine, err)
			}
		}
	}
}

func TestLabRunTraffic(t *testing.T) {
	lab := NewLab()
	defer lab.Close()
	res, err := lab.Run(context.Background(), Config{
		Topology: Connected(6),
		Traffic:  []TrafficSpec{PoissonTraffic(150)},
		Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsArrived == 0 {
		t.Error("no arrivals recorded under Poisson traffic")
	}
	if res.Latency.Count() == 0 {
		t.Error("no latency samples recorded")
	}
	// On-off is continuous-time only.
	if _, err := lab.Run(context.Background(), Config{
		Topology: Connected(4),
		Engine:   EngineSlot,
		Traffic:  []TrafficSpec{OnOffTraffic(100, time.Second, time.Second)},
		Duration: time.Second,
	}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("on-off under slot engine: err = %v, want ErrInvalidConfig", err)
	}
	// Mis-sized traffic lists are invalid.
	if _, err := lab.Run(context.Background(), Config{
		Topology: Connected(4),
		Traffic:  []TrafficSpec{PoissonTraffic(1), PoissonTraffic(2)},
	}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("2 traffic entries for 4 stations: err = %v, want ErrInvalidConfig", err)
	}
	// Unknown arrival models and negative rates are invalid on both
	// engines, whether one entry covers every station or each has its
	// own.
	for _, engine := range []Engine{EngineEvent, EngineSlot} {
		for _, traffic := range [][]TrafficSpec{
			{{Model: "bursty", Rate: 100}},
			{PoissonTraffic(-5)},
			{PoissonTraffic(100), PoissonTraffic(100), {Model: "bursty", Rate: 100}, PoissonTraffic(100)},
			{PoissonTraffic(100), PoissonTraffic(-1), PoissonTraffic(100), PoissonTraffic(100)},
		} {
			if _, err := lab.Run(context.Background(), Config{
				Topology: Connected(4),
				Engine:   engine,
				Traffic:  traffic,
				Duration: time.Second,
			}); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("%s with traffic %+v: err = %v, want ErrInvalidConfig", engine, traffic, err)
			}
		}
	}
}

// Incremental eventsim stepping must also be exact for unsaturated and
// slot-engine workloads (the slotsim equivalent is pinned in its own
// package); sim.Duration granularity ensures ragged chunk boundaries.
func TestLabRunChunkingInvisibleUnderTraffic(t *testing.T) {
	cfg := Config{
		Topology: Connected(7),
		Scheme:   IdleSense,
		Traffic:  []TrafficSpec{PoissonTraffic(300)},
		Duration: 3*time.Second + 37*time.Millisecond,
	}
	lab := NewLab()
	defer lab.Close()
	viaLab, err := lab.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct := oneShot(t, cfg); !reflect.DeepEqual(viaLab, direct) {
		t.Errorf("chunked run diverged from one-shot under traffic")
	}
}
