package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventsim"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/scheme"
)

func testSuite() *Suite {
	return &Suite{
		Name: "runner-test",
		Scenarios: []Spec{
			{
				Name:     "saturated-dcf",
				Topology: TopologySpec{Kind: TopoConnected, N: 8},
				Duration: Duration(2 * time.Second),
				Warmup:   durp(Duration(time.Second)),
				Seeds:    3,
			},
			{
				Name:     "hidden-tora",
				Scheme:   scheme.TORA,
				Topology: TopologySpec{Kind: TopoDisc, N: 10, Radius: 16},
				Duration: Duration(2 * time.Second),
				Warmup:   durp(Duration(time.Second)),
				Seeds:    3,
			},
			{
				Name:     "poisson-latency",
				Topology: TopologySpec{Kind: TopoConnected, N: 6},
				Traffic:  []TrafficSpec{{Model: "poisson", Rate: 120}},
				Duration: Duration(3 * time.Second),
				Warmup:   durp(Duration(time.Second)),
				Seeds:    2,
			},
			{
				Name:     "churn-wtop",
				Scheme:   scheme.WTOP,
				Topology: TopologySpec{Kind: TopoConnected, N: 12},
				Churn:    []ChurnStep{{At: 0, Active: 4}, {At: Duration(time.Second), Active: 12}},
				Duration: Duration(2 * time.Second),
				Warmup:   durp(Duration(time.Second)),
				Seeds:    2,
			},
		},
	}
}

// The acceptance property of the runner: the aggregate is bit-identical
// whatever the Parallelism, because replication seeding is pure and
// aggregation order is fixed.
func TestRunnerParallelismInvariance(t *testing.T) {
	su := testSuite()
	if err := su.withDefaults(); err != nil {
		t.Fatal(err)
	}
	serial := Runner{Parallelism: 1}
	parallel := Runner{Parallelism: runtime.GOMAXPROCS(0)}
	a, err := serial.RunSuite(context.Background(), su)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.RunSuite(context.Background(), su)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := MarshalSummaries(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := MarshalSummaries(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Errorf("Parallelism 1 vs %d summaries differ:\n%s\nvs\n%s",
			runtime.GOMAXPROCS(0), aj, bj)
	}
}

// Sanity of the summary content across scenario types.
func TestRunnerSummaryContent(t *testing.T) {
	su := testSuite()
	if err := su.withDefaults(); err != nil {
		t.Fatal(err)
	}
	r := Runner{}
	sums, err := r.RunSuite(context.Background(), su)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != len(su.Scenarios) {
		t.Fatalf("%d summaries for %d scenarios", len(sums), len(su.Scenarios))
	}
	byName := map[string]*Summary{}
	for _, s := range sums {
		byName[s.Name] = s
	}
	sat := byName["saturated-dcf"]
	if sat.Replications != 3 || sat.Stations != 8 {
		t.Errorf("saturated summary shape: %+v", sat)
	}
	if sat.ThroughputMbps.Mean <= 0 || sat.Successes == 0 {
		t.Errorf("saturated run made no progress: %+v", sat)
	}
	if sat.PacketsArrived != 0 {
		t.Errorf("saturated run counted arrivals: %d", sat.PacketsArrived)
	}
	if sat.Latency.Packets != sat.Successes {
		t.Errorf("latency packets %d != successes %d", sat.Latency.Packets, sat.Successes)
	}
	if sat.HiddenPairs.Mean != 0 {
		t.Errorf("connected topology reported hidden pairs: %v", sat.HiddenPairs.Mean)
	}

	hid := byName["hidden-tora"]
	if hid.HiddenPairs.Mean <= 0 {
		t.Errorf("16 m disc with 10 stations should have hidden pairs, got %v", hid.HiddenPairs.Mean)
	}
	// Per-replication topologies differ (topology seed 0), so the
	// hidden-pair count should vary across the three seeds.
	if hid.HiddenPairs.StdDev == 0 {
		t.Logf("note: hidden-pair count identical across seeds (possible but unlikely)")
	}

	poi := byName["poisson-latency"]
	if poi.PacketsArrived == 0 || poi.Latency.Packets == 0 {
		t.Errorf("poisson run recorded no arrivals/latency: %+v", poi)
	}
	if poi.Latency.P99Ms < poi.Latency.P50Ms || poi.Latency.P50Ms <= 0 {
		t.Errorf("implausible latency percentiles: %+v", poi.Latency)
	}

	ch := byName["churn-wtop"]
	if ch.Successes == 0 {
		t.Errorf("churn run made no progress")
	}
}

// Capture scenarios must report frame counts and a short-term fairness
// index, and stay parallelism-invariant too.
func TestRunnerCapture(t *testing.T) {
	sp := &Spec{
		Name:     "cap",
		Topology: TopologySpec{Kind: TopoConnected, N: 5},
		Duration: Duration(2 * time.Second),
		Capture:  true,
		Seeds:    2,
	}
	r := Runner{}
	sum, err := r.Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Capture == nil {
		t.Fatal("capture stats missing")
	}
	if sum.Capture.Frames == 0 {
		t.Error("no frames captured")
	}
	if j := sum.Capture.ShortTermJain.Mean; j <= 0 || j > 1 {
		t.Errorf("short-term Jain %v outside (0, 1]", j)
	}
	if sp.CaptureWindow != 15 {
		t.Errorf("capture window default = %d, want 3·N = 15", sp.CaptureWindow)
	}
}

// Runner errors must be deterministic and name the failing scenario.
func TestRunnerReportsSpecErrors(t *testing.T) {
	r := Runner{}
	if _, err := r.Run(context.Background(), &Spec{Name: "bad", Topology: TopologySpec{Kind: "torus", N: 3}}); err == nil {
		t.Error("invalid spec did not error")
	}
}

// After the first recorded failure — a replication error or a done
// error — the batch must fail fast: the remaining jobs are never
// simulated. The reported error stays deterministic: jobs are sent in
// index order, so everything below a simulation error's index already
// started, and a simulation error beats a done error whatever the
// wall-clock order.
func TestRunBatchFailsFast(t *testing.T) {
	const seeds = 2000
	spec := func(name string, seeds int) *Spec {
		return &Spec{
			Name:     name,
			Topology: TopologySpec{Kind: TopoConnected, N: 2},
			Duration: Duration(time.Second),
			Seeds:    seeds,
		}
	}
	// points is a batch of one-replication specs, so every replication
	// completes a spec and reaches done.
	points := func() []*Spec {
		specs := make([]*Spec, seeds)
		for i := range specs {
			specs[i] = spec(fmt.Sprintf("p%d", i), 1)
		}
		return specs
	}
	emitErr := errors.New("emit failed")
	for _, tc := range []struct {
		name  string
		specs []*Spec
		fail  func(sp *Spec, rep int) error // nil: the replication succeeds
		done  func(i int) error
		want  string
	}{
		{
			name:  "simulation error",
			specs: []*Spec{spec("failfast", seeds)},
			fail: func(sp *Spec, rep int) error {
				if rep == 0 {
					return errors.New("boom")
				}
				return nil
			},
			want: `scenario "failfast" replication 0: boom`,
		},
		{
			name:  "done error",
			specs: points(),
			done:  func(int) error { return emitErr },
			want:  emitErr.Error(),
		},
		{
			name:  "simulation error beats done error",
			specs: points(),
			fail: func(sp *Spec, rep int) error {
				if sp.Name == "p0" {
					time.Sleep(5 * time.Millisecond) // fails after done has failed
					return errors.New("slow boom")
				}
				return nil
			},
			done: func(int) error { return emitErr },
			want: `scenario "p0" replication 0: slow boom`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var simulated atomic.Int64
			r := Runner{
				Parallelism: 8,
				runRep: func(sp *Spec, rep int) (*replication, error) {
					if tc.fail != nil {
						if err := tc.fail(sp, rep); err != nil {
							return nil, err
						}
					}
					simulated.Add(1)
					time.Sleep(100 * time.Microsecond)
					return &replication{res: &eventsim.Result{}}, nil
				},
			}
			defer r.Close()
			err := r.RunBatchFunc(context.Background(), tc.specs, func(i int, sum *Summary) error {
				if tc.done == nil {
					return nil
				}
				return tc.done(i)
			})
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error %v, want %q", err, tc.want)
			}
			// Fail fast: the vast majority of the batch was never run.
			// Workers that already picked up a job finish it, so allow a
			// small scheduling-dependent margin.
			if n := simulated.Load(); n > seeds/10 {
				t.Errorf("%d of %d replications simulated after the failure — no fail-fast", n, seeds)
			}
		})
	}
}

// The lowest-index error wins even when a later job errors first in
// wall-clock time.
func TestRunBatchKeepsLowestIndexError(t *testing.T) {
	specs := []*Spec{{
		Name:     "order",
		Topology: TopologySpec{Kind: TopoConnected, N: 2},
		Duration: Duration(time.Second),
		Seeds:    8,
	}}
	r := Runner{
		Parallelism: 4,
		runRep: func(sp *Spec, rep int) (*replication, error) {
			switch rep {
			case 0:
				time.Sleep(5 * time.Millisecond) // errors last in wall-clock time
				return nil, errors.New("slow low-index failure")
			case 5:
				return nil, errors.New("fast high-index failure")
			}
			return nil, nil
		},
	}
	_, err := r.RunBatch(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "replication 0") {
		t.Errorf("reported %v, want the replication-0 error", err)
	}
}

// A single replication re-run must be bit-identical to itself (the
// determinism base case the invariance test builds on).
func TestRunnerDeterminism(t *testing.T) {
	sp := &Spec{
		Name:     "det",
		Scheme:   scheme.TORA,
		Topology: TopologySpec{Kind: TopoDisc, N: 8, Radius: 16},
		Traffic:  []TrafficSpec{{Model: "poisson", Rate: 200}},
		Duration: Duration(2 * time.Second),
		Seeds:    2,
	}
	r := Runner{}
	a, err := r.Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := MarshalSummaries([]*Summary{a})
	bj, _ := MarshalSummaries([]*Summary{b})
	if !bytes.Equal(aj, bj) {
		t.Errorf("same spec diverged across runs:\n%s\nvs\n%s", aj, bj)
	}
}

// Cancelling the context mid-batch must drain the remaining jobs
// unsimulated and report the context's error.
func TestRunBatchCancellation(t *testing.T) {
	const seeds = 500
	specs := []*Spec{{
		Name:     "cancel",
		Topology: TopologySpec{Kind: TopoConnected, N: 2},
		Duration: Duration(time.Second),
		Seeds:    seeds,
	}}
	ctx, cancel := context.WithCancel(context.Background())
	var simulated atomic.Int64
	r := Runner{
		Parallelism: 4,
		runRep: func(sp *Spec, rep int) (*replication, error) {
			if simulated.Add(1) == 3 {
				cancel() // cancel from inside the batch, mid-flight
			}
			time.Sleep(100 * time.Microsecond)
			return nil, nil
		},
	}
	defer r.Close()
	_, err := r.RunBatch(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := simulated.Load(); n > seeds/10 {
		t.Errorf("%d of %d replications simulated after cancel — no drain", n, seeds)
	}
}

// A batch that fully completes before anyone observes the cancellation
// reports its results; a batch started on an already-cancelled context
// reports the context error.
func TestRunBatchPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Runner{Parallelism: 2, runRep: func(sp *Spec, rep int) (*replication, error) {
		t.Error("replication simulated under a cancelled context")
		return nil, nil
	}}
	defer r.Close()
	_, err := r.Run(ctx, &Spec{
		Name:     "precancel",
		Topology: TopologySpec{Kind: TopoConnected, N: 2},
		Duration: Duration(time.Second),
		Seeds:    4,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A simulation error recorded before the cancellation beats ctx.Err():
// the deterministic lowest-index error stays the reported one.
func TestRunBatchSimulationErrorBeatsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := Runner{Parallelism: 1, runRep: func(sp *Spec, rep int) (*replication, error) {
		if rep == 0 {
			cancel()
			return nil, errors.New("boom")
		}
		return nil, nil
	}}
	defer r.Close()
	_, err := r.Run(ctx, &Spec{
		Name:     "errwins",
		Topology: TopologySpec{Kind: TopoConnected, N: 2},
		Duration: Duration(time.Second),
		Seeds:    8,
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the simulation error", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("simulation error %v reported as cancellation", err)
	}
}

// Close is idempotent, safe from many goroutines, and safe concurrently
// with in-flight batches: running batches finish (their summaries land),
// later Run calls fail with ErrClosed, and every Close returns only
// after teardown.
func TestCloseConcurrentWithInFlightBatches(t *testing.T) {
	r := &Runner{Parallelism: 4}
	sp := func(name string) *Spec {
		return &Spec{
			Name:     name,
			Topology: TopologySpec{Kind: TopoConnected, N: 3},
			Duration: Duration(500 * time.Millisecond),
			Seeds:    6,
		}
	}
	const batches = 4
	errs := make(chan error, batches)
	for i := 0; i < batches; i++ {
		i := i
		go func() {
			sum, err := r.Run(context.Background(), sp(fmt.Sprintf("b%d", i)))
			if err == nil && sum.Successes == 0 {
				err = errors.New("completed batch made no progress")
			}
			errs <- err
		}()
	}
	// Let some batches get in flight, then close from several goroutines
	// at once.
	time.Sleep(2 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); r.Close() }()
	}
	wg.Wait()
	for i := 0; i < batches; i++ {
		// Every batch either ran to completion (started before Close) or
		// was refused outright — never a partial result or a panic.
		if err := <-errs; err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("batch error: %v", err)
		}
	}
	// After Close the runner stays closed.
	if _, err := r.Run(context.Background(), sp("late")); !errors.Is(err, ErrClosed) {
		t.Errorf("Run after Close = %v, want ErrClosed", err)
	}
	r.Close() // still idempotent
}

// A Runner that never ran closes cleanly, and a closed-before-first-use
// Runner refuses work.
func TestCloseBeforeFirstUse(t *testing.T) {
	r := &Runner{}
	r.Close()
	r.Close()
	if _, err := r.Run(context.Background(), &Spec{
		Name:     "afterclose",
		Topology: TopologySpec{Kind: TopoConnected, N: 2},
		Duration: Duration(time.Second),
	}); !errors.Is(err, ErrClosed) {
		t.Errorf("Run on closed runner = %v, want ErrClosed", err)
	}
}

// Validation failures must wrap ErrInvalidSpec so facade layers can
// classify them without string matching.
func TestValidationWrapsErrInvalidSpec(t *testing.T) {
	r := Runner{}
	defer r.Close()
	_, err := r.Run(context.Background(), &Spec{Name: "bad", Topology: TopologySpec{Kind: "torus", N: 3}})
	if !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("runner validation error %v does not wrap ErrInvalidSpec", err)
	}
	if _, err := Decode([]byte(`{"topology":{"kind":"connected","n":0}}`)); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("decode validation error %v does not wrap ErrInvalidSpec", err)
	}
	sp := &Spec{Topology: TopologySpec{Kind: TopoConnected, N: 2}, Duration: -1}
	if err := sp.Validate(); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("Validate error %v does not wrap ErrInvalidSpec", err)
	}
}

// Every scheme Build names runs end to end through the runner, and a
// fixed control reaches every policy with the controller dropped: p for
// wTOP-CSMA, p0 for TORA-CSMA (zero included).
func TestBuildSimAllSchemes(t *testing.T) {
	ctl := func(v float64) *float64 { return &v }
	cases := []struct {
		scheme  string
		control *float64
	}{
		{scheme.DCF, nil}, {scheme.IdleSense, nil}, {scheme.WTOP, nil}, {scheme.TORA, nil},
		{scheme.SlowDecrease, nil}, {scheme.EstimateN, nil},
		{scheme.WTOP, ctl(0.0123)}, {scheme.TORA, ctl(0)}, {scheme.TORA, ctl(0.30000000000000004)},
	}
	r := &Runner{}
	defer r.Close()
	for _, tc := range cases {
		sp := Spec{Scheme: tc.scheme, Control: tc.control, Topology: TopologySpec{Kind: TopoConnected, N: 4}, Duration: Duration(2 * time.Second)}
		sum, err := r.Run(context.Background(), &sp)
		if err != nil {
			t.Fatalf("%s: %v", tc.scheme, err)
		}
		if sum.Successes == 0 {
			t.Errorf("%s: no successes in 2s", tc.scheme)
		}
		cfg, err := EngineConfig(&sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tc.control == nil {
			continue
		}
		if cfg.Controller != nil {
			t.Errorf("%s control %v: the controller still runs", tc.scheme, *tc.control)
		}
		back := model.PaperBackoff()
		for i, p := range cfg.Policies {
			switch p := p.(type) {
			case *mac.PPersistent:
				if got := p.AttemptProbability(); got != *tc.control {
					t.Errorf("%s: station %d control %v, want %v", tc.scheme, i, got, *tc.control)
				}
			case *mac.RandomReset:
				// A fresh policy with reset stage 0 and p0 = control.
				if want := mac.NewRandomReset(back.CWMin, back.M, 0, *tc.control); *p != *want {
					t.Errorf("%s: station %d runs %+v, want %+v", tc.scheme, i, *p, *want)
				}
			default:
				t.Fatalf("%s: station %d runs %T", tc.scheme, i, p)
			}
		}
	}
	if _, err := r.Run(context.Background(), &Spec{Scheme: "bogus", Topology: TopologySpec{Kind: TopoConnected, N: 4}}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// A detailed summary carries one run per replication in seed order,
// matching the aggregate, and survives a JSON round trip unchanged: no
// value of it is NaN or ±Inf, which JSON cannot carry.
func TestRunnerDetail(t *testing.T) {
	r := &Runner{Parallelism: 2}
	defer r.Close()
	for _, sch := range []string{scheme.DCF, scheme.IdleSense, scheme.WTOP, scheme.TORA, scheme.SlowDecrease, scheme.EstimateN} {
		sp := Spec{
			Scheme:   sch,
			Topology: TopologySpec{Kind: TopoDisc, N: 8, Radius: 20},
			Churn:    []ChurnStep{{At: 0, Active: 3}, {At: Duration(500 * time.Millisecond), Active: 8}},
			Duration: Duration(time.Second),
			Seeds:    3,
			Detail:   true,
		}
		sum, err := r.Run(context.Background(), &sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.Runs) != 3 {
			t.Fatalf("%s: %d runs for 3 seeds", sch, len(sum.Runs))
		}
		mean := 0.0
		for i, run := range sum.Runs {
			if len(run.StationThroughput) != 8 || len(run.Throughput.Times) == 0 || len(run.Active.Values) != len(run.Throughput.Values) {
				t.Fatalf("%s run %d: %d stations, %d throughput and %d active samples", sch, i, len(run.StationThroughput), len(run.Throughput.Times), len(run.Active.Values))
			}
			total := 0.0
			for _, x := range run.StationThroughput {
				total += x
			}
			mean += total / 3
			if (sch == scheme.WTOP || sch == scheme.TORA) != (len(run.Control.Values) > 0) {
				t.Errorf("%s run %d: %d control samples", sch, i, len(run.Control.Values))
			}
		}
		if math.Abs(mean/1e6-sum.ThroughputMbps.Mean) > 1e-9*sum.ThroughputMbps.Mean {
			t.Errorf("%s: runs average %v Mbps, the aggregate %v", sch, mean/1e6, sum.ThroughputMbps.Mean)
		}
		data, err := json.Marshal(sum)
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		var back Summary
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&back, sum) {
			t.Errorf("%s: the detailed summary changed in a JSON round trip", sch)
		}
	}
}
