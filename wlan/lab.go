package wlan

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"sync/atomic"
	"time"

	"repro/internal/eventsim"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/slotsim"
	"repro/internal/sweep"
)

// Lab is the long-lived entry point of the package: one construction,
// validation and fan-out path behind three run shapes.
//
//   - Run executes one simulation from a Config on either engine.
//   - RunScenario executes a replicated declarative Scenario and
//     aggregates mean/CI summaries (RunSuite batches several).
//   - Sweep expands a parameter Grid and streams one point at a time,
//     with optional caching and sharding; SweepStream writes the
//     canonical JSONL rows instead.
//
// A Lab owns a persistent simulation worker pool (scenario.Runner):
// workers start lazily on the first scenario or sweep and are reused —
// with their warmed simulator arenas — until Close. All methods are
// safe for concurrent use, accept a context.Context, and return
// bit-identical results to one-shot calls whatever the parallelism or
// reuse pattern. The zero Lab is NOT ready; use NewLab.
type Lab struct {
	runner  *scenario.Runner
	metrics *Metrics
	closed  atomic.Bool
}

// LabOption configures NewLab.
type LabOption func(*Lab)

// WithParallelism bounds the Lab's concurrently running replications
// (0, the default, means GOMAXPROCS). Aggregates are bit-identical for
// any setting.
func WithParallelism(n int) LabOption {
	return func(l *Lab) { l.runner.Parallelism = n }
}

// NewLab returns a ready Lab. Close it to stop the worker pool.
func NewLab(opts ...LabOption) *Lab {
	l := &Lab{runner: &scenario.Runner{}}
	for _, o := range opts {
		o(l)
	}
	return l
}

// Close marks the Lab closed — methods fail with ErrClosed from now on
// — then stops the worker pool. It is idempotent, safe to call from
// any goroutine, and safe concurrently with in-flight calls: running
// batches finish before the pool stops (see scenario.Runner.Close for
// the underlying contract). It always returns nil; the error result
// exists so a Lab satisfies io.Closer.
func (l *Lab) Close() error {
	l.closed.Store(true)
	l.runner.Close()
	return nil
}

func (l *Lab) guard() error {
	if l.closed.Load() {
		return ErrClosed
	}
	return nil
}

// pool returns the Lab's worker pool for a run about to start on it;
// the first such run starts the events/s clock.
func (l *Lab) pool() *scenario.Runner {
	l.metrics.started()
	return l.runner
}

// Run executes one simulation described by cfg and returns its Result.
//
// cfg is judged by the Scenario rules: its run fields, with the
// topology's stations as a custom layout, go through the validation
// and the engine assembly every scenario replication takes. Rejections
// wrap ErrInvalidConfig.
//
// The engine comes from cfg.Engine: EngineEvent (default) supports
// every Config feature; EngineSlot accepts only fully connected
// topologies without RTSCTS, frame errors, traces, churn or on-off
// traffic, and its Result carries no kernel event count, no latency
// histogram and no per-station failure counts (slot-synchronous runs
// have none of these notions).
//
// The run advances in small simulated-time chunks so ctx cancellation
// takes effect promptly mid-run; chunked stepping is bit-identical to
// a single uninterrupted run on both engines (pinned by tests).
func (l *Lab) Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := l.guard(); err != nil {
		return nil, err
	}
	engine := cmp.Or(cfg.Engine, EngineEvent)
	if engine != EngineEvent && engine != EngineSlot {
		return nil, fmt.Errorf("%w: unknown engine %q (want %s or %s)", ErrInvalidConfig, engine, EngineEvent, EngineSlot)
	}
	sp, ec, err := assemble(cfg)
	if err != nil {
		return nil, err
	}
	if engine == EngineSlot {
		return runSlot(ctx, cfg, sp, ec)
	}
	ec.Trace = cfg.Trace
	s, err := eventsim.New(ec)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	for _, step := range sp.Churn {
		if err := s.SetActiveAt(sim.Time(step.At), step.Active); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
		}
	}
	return stepRun(ctx, time.Duration(sp.Duration), func(d time.Duration) *Result {
		return s.Run(sim.Duration(d))
	})
}

// assemble validates cfg as a Scenario — its run fields, with the
// stations of cfg.Topology as a custom topology, so Spec.Validate
// applies the scenario rules and defaults — and builds the engine
// configuration on cfg.Topology through scenario.EngineConfigOn, the
// assembly the scenario runner uses too.
func assemble(cfg Config) (*Scenario, eventsim.Config, error) {
	if cfg.Topology == nil {
		return nil, eventsim.Config{}, fmt.Errorf("%w: Topology is required", ErrInvalidConfig)
	}
	pts := make([]ScenarioPoint, cfg.Topology.N())
	for i, p := range cfg.Topology.Stations {
		pts[i] = ScenarioPoint{X: p.X - cfg.Topology.AP.X, Y: p.Y - cfg.Topology.AP.Y}
	}
	sp := &Scenario{
		Topology:       TopologySpec{Kind: TopoCustom, Points: pts},
		Scheme:         string(cfg.Scheme),
		Weights:        cfg.Weights,
		Traffic:        cfg.Traffic,
		Churn:          cfg.Churn,
		Duration:       Duration(cfg.Duration),
		Seed:           cfg.Seed,
		UpdatePeriod:   Duration(cfg.UpdatePeriod),
		RTSCTS:         cfg.RTSCTS,
		FrameErrorRate: cfg.FrameErrorRate,
	}
	if err := sp.Validate(); err != nil {
		return nil, eventsim.Config{}, wrapErr(err)
	}
	ec, err := scenario.EngineConfigOn(sp, cfg.Topology, sp.Seed)
	if err != nil {
		return nil, eventsim.Config{}, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	return sp, ec, nil
}

// stepRun advances a resumable simulation to total in chunks, polling
// ctx between chunks. Both engines' Run(d) continue from where they
// stopped and recompute aggregates at return, so the chunking is
// invisible in the final Result.
func stepRun[R any](ctx context.Context, total time.Duration, run func(time.Duration) *R) (*R, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapErr(err)
	}
	chunk := total / 64
	if chunk < time.Millisecond {
		chunk = time.Millisecond
	}
	for at := chunk; at < total; at += chunk {
		run(at)
		if err := ctx.Err(); err != nil {
			return nil, wrapErr(err)
		}
	}
	return run(total), nil
}

// runSlot executes one slot-engine run of a validated, assembled cfg,
// refusing what the slotted abstraction cannot represent.
func runSlot(ctx context.Context, cfg Config, sp *Scenario, ec eventsim.Config) (*Result, error) {
	switch {
	case !cfg.Topology.FullyConnected():
		return nil, fmt.Errorf("%w: %s needs a fully connected topology (hidden pairs need %s)", ErrInvalidConfig, EngineSlot, EngineEvent)
	case cfg.RTSCTS:
		return nil, fmt.Errorf("%w: RTSCTS needs %s", ErrInvalidConfig, EngineEvent)
	case cfg.FrameErrorRate != 0:
		return nil, fmt.Errorf("%w: FrameErrorRate needs %s", ErrInvalidConfig, EngineEvent)
	case cfg.Trace != nil:
		return nil, fmt.Errorf("%w: Trace needs %s", ErrInvalidConfig, EngineEvent)
	case len(cfg.Churn) > 0:
		return nil, fmt.Errorf("%w: Churn needs %s", ErrInvalidConfig, EngineEvent)
	}
	s, err := slotsim.New(slotsim.Config{
		PHY:          ec.PHY,
		Policies:     ec.Policies,
		Controller:   ec.Controller,
		UpdatePeriod: ec.UpdatePeriod,
		Seed:         ec.Seed,
		Arrivals:     ec.Arrivals,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	res, err := stepRun(ctx, time.Duration(sp.Duration), func(d time.Duration) *slotsim.Result {
		return s.Run(sim.Duration(d))
	})
	if err != nil {
		return nil, err
	}
	return slotResult(res, cfg.Weights, int64(ec.PHY.Payload)), nil
}

// slotResult maps a slot-engine result onto the shared Result shape.
// Fields without a slot-synchronous meaning stay zero: EventsFired,
// MaxConcurrent, the latency histogram/jitter sums, FrameErrors,
// ActiveSeries, and per-station Failures (slotsim counts collisions per
// busy period, not per station). Per-station Successes are exact —
// every success delivers one fixed payloadBits (the run's actual PHY
// payload, threaded from runSlot).
func slotResult(res *slotsim.Result, weights []float64, payloadBits int64) *Result {
	out := &Result{
		Duration:         res.Duration,
		Throughput:       res.Throughput,
		Successes:        res.Successes,
		Collisions:       res.Collisions,
		APIdleSlots:      res.IdleSlotsPerTx,
		ThroughputSeries: res.ThroughputSeries,
		ControlSeries:    res.ControlSeries,
		PacketsArrived:   res.PacketsArrived,
		PacketsDropped:   res.PacketsDropped,
	}
	secs := time.Duration(res.Duration).Seconds()
	out.Stations = make([]StationStats, len(res.PerStation))
	for i, bits := range res.PerStation {
		st := StationStats{
			BitsDelivered: bits,
			Successes:     bits / payloadBits,
			Weight:        1,
		}
		if weights != nil {
			st.Weight = weights[i]
		}
		if secs > 0 {
			st.Throughput = float64(bits) / secs
		}
		out.Stations[i] = st
	}
	return out
}

// RunScenario validates and executes one declarative Scenario — all its
// seeded replications — through the Lab's worker pool and returns the
// aggregate Summary. The aggregate is bit-identical for any parallelism
// and for any interleaving with other Lab calls. Cancelling ctx aborts
// at replication granularity and returns ErrCanceled.
func (l *Lab) RunScenario(ctx context.Context, sc Scenario) (*Summary, error) {
	if err := l.guard(); err != nil {
		return nil, err
	}
	sum, err := l.pool().Run(ctx, &sc)
	if err != nil {
		return nil, wrapErr(err)
	}
	return sum, nil
}

// RunSuite executes every scenario of a suite, fanning all replications
// of all scenarios into the worker pool at once, and returns one
// Summary per scenario in suite order.
func (l *Lab) RunSuite(ctx context.Context, su *Suite) ([]*Summary, error) {
	if err := l.guard(); err != nil {
		return nil, err
	}
	sums, err := l.pool().RunSuite(ctx, su)
	if err != nil {
		return nil, wrapErr(err)
	}
	return sums, nil
}

// SweepOption configures a Lab.Sweep or Lab.SweepStream call.
type SweepOption func(*sweepConfig)

type sweepConfig struct {
	cacheDir string
	shard    Shard
	stats    *SweepStats
}

// WithSweepCache backs the sweep with the content-addressed result
// cache at dir (created if needed): completed (scenario, engine) points
// are served without re-simulating, which makes re-runs and resumed
// runs cheap and lets concurrent shards share one directory.
func WithSweepCache(dir string) SweepOption {
	return func(sc *sweepConfig) { sc.cacheDir = dir }
}

// WithShard restricts the sweep to the deterministic partition
// index/count of the expanded grid. Shards are disjoint and complete:
// their merged outputs are byte-identical to an unsharded run.
func WithShard(index, count int) SweepOption {
	return func(sc *sweepConfig) { sc.shard = Shard{Index: index, Count: count} }
}

// WithSweepStats records the sweep's satisfaction counts (total, owned,
// simulated, cached) into st when the sweep finishes.
func WithSweepStats(st *SweepStats) SweepOption {
	return func(sc *sweepConfig) { sc.stats = st }
}

// errSweepStop aborts a sweep whose consumer stopped iterating early.
var errSweepStop = errors.New("wlan: sweep iteration stopped")

// Sweep expands the grid's cross-product, executes every owned point
// through the Lab's worker pool (serving cache hits without
// simulating), and yields one (point, nil) pair per point in expansion
// order. On failure — validation, simulation, cancellation — the
// sequence ends with a single (nil, err) pair carrying the matching
// sentinel. Breaking out of the loop aborts the sweep; remaining
// points drain unsimulated. The loop body runs on the ranging goroutine
// and may re-enter the Lab (a panic in it reaches the caller, and the
// Lab stays usable); it must not call Close:
//
//	for pt, err := range lab.Sweep(ctx, grid, wlan.WithSweepCache(dir)) {
//		if err != nil {
//			return err
//		}
//		fmt.Println(pt.Name, pt.Summary.ConvergedMbps.Mean)
//	}
func (l *Lab) Sweep(ctx context.Context, g *Grid, opts ...SweepOption) iter.Seq2[*SweepPoint, error] {
	return func(yield func(*SweepPoint, error) bool) {
		r, sc, err := l.sweepRunner(opts)
		if err != nil {
			yield(nil, err)
			return
		}
		stopped := false
		st, err := r.Each(ctx, g, func(pr *SweepPoint) error {
			if !yield(pr, nil) {
				stopped = true
				return errSweepStop
			}
			return nil
		})
		if sc.stats != nil {
			*sc.stats = st
		}
		if err != nil && !stopped {
			yield(nil, wrapErr(err))
		}
	}
}

// SweepStream executes the sweep like Sweep but writes the canonical
// JSONL row encoding — one deterministic row per point, in point order
// — to w. This is the encoding the wlansim CLI emits, shard merges
// recombine byte-identically, and the committed golden files pin.
func (l *Lab) SweepStream(ctx context.Context, g *Grid, w io.Writer, opts ...SweepOption) (SweepStats, error) {
	r, sc, err := l.sweepRunner(opts)
	if err != nil {
		return SweepStats{}, err
	}
	st, err := r.Stream(ctx, g, w)
	if sc.stats != nil {
		*sc.stats = st
	}
	return st, wrapErr(err)
}

// sweepRunner assembles the sweep executor bound to the Lab's pool.
func (l *Lab) sweepRunner(opts []SweepOption) (*sweep.Runner, *sweepConfig, error) {
	if err := l.guard(); err != nil {
		return nil, nil, err
	}
	sc := &sweepConfig{}
	for _, o := range opts {
		o(sc)
	}
	r := &sweep.Runner{Shard: sc.shard, Scenarios: l.pool()}
	if l.metrics != nil {
		r.Counts = &l.metrics.sweep
	}
	if sc.cacheDir != "" {
		c, err := sweep.OpenCache(sc.cacheDir)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
		}
		r.Cache = c
	}
	return r, sc, nil
}
