package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/slotsim"
	"repro/internal/svc"
	"repro/internal/sweep"
	"repro/wlan"
)

// The workloads. Each one puts its time in a different layer; README.md
// records why each exists and which metrics it should move.
const (
	paperHidden    = "paper-hidden"
	campaignSmall  = "campaign-small"
	campaignResume = "campaign-resume"
	svcLoopback    = "svc-loopback"
	scale100k      = "scale-100k"
)

var workloadNames = []string{paperHidden, campaignSmall, campaignResume, svcLoopback, scale100k}

var schemes = []string{scheme.DCF, scheme.IdleSense, scheme.WTOP, scheme.TORA}

// input is everything one repetition needs. The parent builds it from
// the seed and hands it to each child as JSON, so the program under test
// receives only the generated grid and the fixture paths.
type input struct {
	Workload string          `json:"workload"`
	Grid     json.RawMessage `json:"grid,omitempty"`
	// Points is how many rows one repetition must produce.
	Points int `json:"points"`
	// CacheDir is the sweep cache campaign-resume reads, filled once per
	// run before any repetition. No timed repetition writes a cache:
	// creating and deleting thousands of small files makes every later
	// repetition on the same disk slower, run after run, so cache writes
	// are costed per call by the traced ledger instead.
	CacheDir string `json:"cache_dir,omitempty"`
	// Passes is how many warm passes one campaign-resume repetition makes.
	Passes int `json:"passes,omitempty"`
	// WantSHA, when set, is the sha256 of the rows every repetition must
	// reproduce byte for byte.
	WantSHA string `json:"want_sha,omitempty"`
	// Stations, Seed, Warm and Measure size the scale-100k run.
	Stations int           `json:"stations,omitempty"`
	Seed     int64         `json:"seed,omitempty"`
	Warm     time.Duration `json:"warm,omitempty"`
	Measure  time.Duration `json:"measure,omitempty"`
}

// baseSeed maps the harness seed to the first simulation seed. Seeds
// 0 and 1 must differ, and a scenario seed of 0 means "default", so
// the mapping never lands on 0 for the fewer than 1000 seeds a grid uses.
func baseSeed(seed int64) int64 { return 1000*seed + 1 }

// paperGrid is the hidden-node comparison of the paper's Figs. 6-7:
// 802.11, IdleSense, wTOP-CSMA and TORA-CSMA on 16 m and 20 m discs.
// Ten simulated seconds per point (half of it warm-up) keep one
// repetition near two seconds on two CPUs.
func paperGrid(seed int64, tiny bool) *sweep.Grid {
	dur, nodes := 10*time.Second, []int{10, 20, 30, 40, 50, 60}
	if tiny {
		dur, nodes = time.Second, []int{5, 10}
	}
	warm := scenario.Duration(dur / 2)
	return &sweep.Grid{
		Name: paperHidden,
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.TopoDisc},
			Duration: scenario.Duration(dur),
			Warmup:   &warm,
			Seed:     baseSeed(seed),
		},
		Axes: []sweep.Axis{
			{Field: sweep.FieldRadius, Values: sweep.Floats(16, 20)},
			{Field: sweep.FieldScheme, Values: sweep.Strings(schemes...)},
			{Field: sweep.FieldNodes, Values: sweep.Ints(nodes...)},
		},
	}
}

// campaignGrid is a many-small-points campaign: 150 ms points on a
// connected topology, so per-point overhead (topology and scheme build,
// arena reset, row encoding) is a large share of the time.
func campaignGrid(seed int64, tiny bool) *sweep.Grid {
	k := 50
	if tiny {
		k = 2
	}
	seeds := make([]int, k)
	for i := range seeds {
		seeds[i] = int(baseSeed(seed)) + i
	}
	return &sweep.Grid{
		Name: "campaign",
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.TopoConnected},
			Duration: scenario.Duration(150 * time.Millisecond),
		},
		Axes: []sweep.Axis{
			{Field: sweep.FieldScheme, Values: sweep.Strings(schemes...)},
			{Field: sweep.FieldNodes, Values: sweep.Ints(2, 4, 6, 8, 12)},
			{Field: sweep.FieldRTSCTS, Values: sweep.Bools(false, true)},
			{Field: sweep.FieldSeed, Values: sweep.Ints(seeds...)},
		},
	}
}

// prepare builds a workload's input for seed, including the fixtures
// that are not part of what a repetition measures: the filled cache
// campaign-resume reads, and the single-machine rows svc-loopback must
// reproduce.
func prepare(workload string, seed int64, tiny bool, dir string) (*input, error) {
	in := &input{Workload: workload}
	var g *sweep.Grid
	switch workload {
	case paperHidden:
		g = paperGrid(seed, tiny)
	case campaignSmall, campaignResume, svcLoopback:
		g = campaignGrid(seed, tiny)
	case scale100k:
		in.Stations, in.Warm, in.Measure = 100_000, 150*time.Second, 150*time.Second
		if tiny {
			in.Stations, in.Warm, in.Measure = 2048, 10*time.Second, 20*time.Second
		}
		in.Seed, in.Points = baseSeed(seed), 1
		return in, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	data, err := json.Marshal(g)
	if err != nil {
		return nil, fmt.Errorf("%s: encode grid: %w", workload, err)
	}
	in.Grid = data
	pts, err := sweep.Expand(g)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	in.Points = len(pts)

	switch workload {
	case campaignResume:
		in.Passes = 8
		if tiny {
			in.Passes = 2
		}
		in.Points *= in.Passes
		in.CacheDir = filepath.Join(dir, "resume-cache")
		in.WantSHA, err = referenceRows(g, in.CacheDir)
	case svcLoopback:
		in.WantSHA, err = referenceRows(g, "")
	}
	if err != nil {
		return nil, fmt.Errorf("%s: fixture: %w", workload, err)
	}
	return in, nil
}

// referenceRows runs the grid in process through the public sweep path
// and returns the sha256 of its rows; with a cache directory it also
// fills that cache.
func referenceRows(g *sweep.Grid, cacheDir string) (string, error) {
	lab := wlan.NewLab()
	defer lab.Close()
	var opts []wlan.SweepOption
	if cacheDir != "" {
		opts = append(opts, wlan.WithSweepCache(cacheDir))
	}
	h := sha256.New()
	if _, err := lab.SweepStream(context.Background(), g, h, opts...); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// rowSink receives a repetition's rows. It hashes them and stamps the
// last write, which is when a user reading the output has every row.
// cut closes one pass: campaign-resume makes several, and each must
// hash the same.
type rowSink struct {
	h    hash.Hash
	shas []string
	last time.Time
	// keep, when non-nil, collects the first pass's rows: trace mode
	// uses them as the reference the traced pass must reproduce.
	keep *bytes.Buffer
}

func newRowSink(keep bool) *rowSink {
	s := &rowSink{h: sha256.New()}
	if keep {
		s.keep = &bytes.Buffer{}
	}
	return s
}

func (s *rowSink) Write(p []byte) (int, error) {
	s.last = time.Now()
	s.h.Write(p)
	if s.keep != nil && len(s.shas) == 0 {
		s.keep.Write(p)
	}
	return len(p), nil
}

func (s *rowSink) cut() {
	s.shas = append(s.shas, hex.EncodeToString(s.h.Sum(nil)))
	s.h.Reset()
}

// observer attaches trace-mode instrumentation to an untraced pass:
// util, when set by setup, reads the simulation pool's utilization, and
// mean is its average over the run.
type observer struct {
	util func() float64
	mean float64
}

// runFunc is one repetition after set-up. It streams the rows into the
// sink and returns the number of points it produced.
type runFunc func(ctx context.Context) (int, error)

// setup does the work a user pays before the first point runs: it
// decodes the grid and builds the Lab, the coordinator and its workers,
// or the 100k-station simulator. It returns the run step and a cleanup
// that releases what setup built.
func setup(in *input, sink *rowSink, obs *observer) (runFunc, func(), error) {
	switch in.Workload {
	case paperHidden, campaignSmall, campaignResume:
		return setupSweep(in, sink, obs)
	case svcLoopback:
		return setupSvc(in, sink, obs)
	case scale100k:
		return setupScale(in, sink)
	}
	return nil, nil, fmt.Errorf("unknown workload %q", in.Workload)
}

func setupSweep(in *input, sink *rowSink, obs *observer) (runFunc, func(), error) {
	g, err := wlan.DecodeSweep(in.Grid)
	if err != nil {
		return nil, nil, err
	}
	var labOpts []wlan.LabOption
	if obs != nil && in.Workload != campaignResume {
		m := wlan.NewMetrics()
		labOpts = append(labOpts, wlan.WithMetrics(m))
		obs.util = func() float64 { return m.Snapshot().Utilization }
	}
	lab := wlan.NewLab(labOpts...)
	var opts []wlan.SweepOption
	if in.CacheDir != "" {
		opts = append(opts, wlan.WithSweepCache(in.CacheDir))
	}
	passes := max(in.Passes, 1)
	run := func(ctx context.Context) (int, error) {
		points := 0
		for p := 0; p < passes; p++ {
			st, err := lab.SweepStream(ctx, g, sink, opts...)
			if err != nil {
				return points, err
			}
			if in.Workload == campaignResume && st.Cached != st.Owned {
				return points, fmt.Errorf("warm pass %d simulated %d of %d points; want all from the cache", p, st.Simulated, st.Owned)
			}
			points += st.Owned
			sink.cut()
		}
		return points, nil
	}
	return run, func() { lab.Close() }, nil
}

// svcWorkers is the worker count of svc-loopback: one connection and
// one simulation thread each, two in all on a two-CPU machine.
const svcWorkers = 2

func setupSvc(in *input, sink *rowSink, obs *observer) (runFunc, func(), error) {
	g, err := wlan.DecodeSweep(in.Grid)
	if err != nil {
		return nil, nil, err
	}
	c, err := svc.NewCoordinator(svc.CoordinatorConfig{Grid: g, Out: sink})
	if err != nil {
		return nil, nil, err
	}
	srv := httptest.NewServer(c.Handler())
	var (
		workers    []*svc.Worker
		runners    []*scenario.Runner
		transports []*http.Transport
	)
	cleanup := func() {
		srv.Close()
		for _, r := range runners {
			r.Close()
		}
		for _, t := range transports {
			t.CloseIdleConnections()
		}
	}
	for i := 0; i < svcWorkers; i++ {
		r := &scenario.Runner{Parallelism: 1}
		if obs != nil {
			r.Metrics = scenario.NewMetrics(metrics.NewRegistry())
		}
		t := &http.Transport{}
		w, err := svc.NewWorker(svc.WorkerConfig{
			Client: &svc.Client{BaseURL: srv.URL, HTTPClient: &http.Client{Transport: t}},
			ID:     fmt.Sprintf("bench-%d", i),
			Runner: r,
		})
		runners, transports = append(runners, r), append(transports, t)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		workers = append(workers, w)
	}
	if obs != nil {
		obs.util = func() float64 {
			var busy, size int64
			for _, r := range runners {
				busy += r.Metrics.InFlight.Value()
				size += r.Metrics.Workers.Value()
			}
			if size == 0 {
				return 0
			}
			return float64(busy) / float64(size)
		}
	}
	run := func(ctx context.Context) (int, error) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		errs := make(chan error, len(workers)+1)
		go func() { errs <- c.Run(ctx) }()
		for _, w := range workers {
			go func() { errs <- w.Run(ctx) }()
		}
		select {
		case <-c.Done():
		case <-ctx.Done():
		}
		// The campaign is over once every row is out; a worker still
		// waiting to poll again is stopped rather than waited for.
		cancel()
		var firstErr error
		for i := 0; i < len(workers)+1; i++ {
			if err := <-errs; err != nil && !errors.Is(err, context.Canceled) && firstErr == nil {
				firstErr = err
			}
		}
		if err := c.Err(); err != nil {
			return 0, err
		}
		if firstErr != nil {
			return 0, firstErr
		}
		st := c.Stats()
		if st.RowsEmitted != st.Total {
			return st.RowsEmitted, fmt.Errorf("campaign emitted %d of %d rows", st.RowsEmitted, st.Total)
		}
		sink.cut()
		return st.RowsEmitted, nil
	}
	return run, cleanup, nil
}

// scaleRow is the single result row of a scale-100k repetition.
type scaleRow struct {
	Stations    int     `json:"stations"`
	Successes   int64   `json:"successes"`
	Collisions  int64   `json:"collisions"`
	IdleSlots   int64   `json:"idle_slots"`
	MeasuredBps float64 `json:"measured_bps"`
	FrozenBps   float64 `json:"frozen_bps"`
}

// scaleTolerance is how far the measured throughput may sit from the
// frozen-backoff closed form (the bound the engine's own large-n test
// uses).
const scaleTolerance = 0.015

func setupScale(in *input, sink *rowSink) (runFunc, func(), error) {
	n := in.Stations
	policies := make([]mac.Policy, n)
	for i := range policies {
		policies[i] = mac.NewStandardDCF(n, n)
	}
	s, err := slotsim.New(slotsim.Config{Policies: policies, Seed: in.Seed})
	if err != nil {
		return nil, nil, err
	}
	run := func(ctx context.Context) (int, error) {
		row, err := runScale(s, in)
		if err != nil {
			return 0, err
		}
		data, err := json.Marshal(row)
		if err != nil {
			return 0, err
		}
		sink.Write(append(data, '\n'))
		sink.cut()
		return 1, checkScale(row)
	}
	return run, func() {}, nil
}

// runScale runs the warm-up segment, then the measured one, and returns
// the measured-segment result.
func runScale(s *slotsim.Simulator, in *input) (*scaleRow, error) {
	warm := s.Run(sim.Duration(in.Warm))
	warmBits, warmDur := totalBits(warm.PerStation), warm.Duration
	res := s.Run(sim.Duration(in.Warm + in.Measure))
	secs := time.Duration(res.Duration - warmDur).Seconds()
	if secs <= 0 {
		return nil, fmt.Errorf("measured segment is empty")
	}
	frozen := model.DCF{PHY: model.PaperPHY(), Backoff: model.BackoffParams{CWMin: in.Stations, M: 0}, N: in.Stations}
	return &scaleRow{
		Stations:    in.Stations,
		Successes:   res.Successes,
		Collisions:  res.Collisions,
		IdleSlots:   res.IdleSlots,
		MeasuredBps: float64(totalBits(res.PerStation)-warmBits) / secs,
		FrozenBps:   frozen.FrozenThroughput(),
	}, nil
}

func checkScale(r *scaleRow) error {
	if rel := math.Abs(r.MeasuredBps-r.FrozenBps) / r.FrozenBps; rel > scaleTolerance {
		return fmt.Errorf("measured throughput %.4f Mbps is %.2f%% from the frozen closed form %.4f Mbps (limit %.1f%%)",
			r.MeasuredBps/1e6, 100*rel, r.FrozenBps/1e6, 100*scaleTolerance)
	}
	return nil
}

func totalBits(per []int64) int64 {
	var t int64
	for _, b := range per {
		t += b
	}
	return t
}
