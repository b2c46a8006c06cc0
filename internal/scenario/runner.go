package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/eventsim"
	"repro/internal/model"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrClosed is returned by Run/RunSuite/RunBatch/RunBatchFunc on a
// Runner whose Close has begun.
var ErrClosed = errors.New("scenario: runner is closed")

// Runner executes scenario replications across a persistent worker
// pool. Workers start lazily on the first run and live until Close;
// each worker owns one reusable simulator arena that is Reset — not
// rebuilt — per replication, so steady-state sweep execution performs
// no per-replication construction allocations and no goroutine churn.
//
// Determinism contract: replication r of a spec always runs with seed
// Seed+r and its own RNG substreams — no state is shared between
// replications (Simulator.Reset is bit-identical to a fresh build) —
// and aggregation folds replication results in index order. The
// aggregate Summary is therefore bit-identical for any Parallelism
// setting and any worker/arena assignment, a property the golden tests
// pin.
type Runner struct {
	// Parallelism bounds concurrently running replications
	// (0 = GOMAXPROCS). Fixed once the first run starts the pool.
	Parallelism int

	// Metrics, when non-nil, receives live instrumentation (completed
	// replications, in-flight gauge, kernel events). Set it before the
	// first run; observation never affects simulation state, so
	// results are bit-identical with or without it.
	Metrics *Metrics

	// runRep overrides replication execution in tests (nil = the real
	// simulation).
	runRep func(sp *Spec, rep int) (*replication, error)

	poolOnce  sync.Once
	closeOnce sync.Once
	pool      *workerPool

	// mu guards closed; active counts in-flight batches so Close can
	// wait them out before tearing down the pool.
	mu     sync.Mutex
	closed bool
	active sync.WaitGroup
}

// workerPool is the persistent executor: long-lived workers pulling
// closures from one channel, each holding a private simulator arena.
type workerPool struct {
	jobs chan func(*arena)
	wg   sync.WaitGroup
}

// arena is one worker's reusable simulation state.
type arena struct {
	ev *eventsim.Simulator
}

// simulator returns a simulator for cfg: the arena's instance reset in
// place, or a fresh build the first time (and for arena-less callers).
func (ar *arena) simulator(cfg eventsim.Config) (*eventsim.Simulator, error) {
	if ar == nil || ar.ev == nil {
		s, err := eventsim.New(cfg)
		if err != nil {
			return nil, err
		}
		if ar != nil {
			ar.ev = s
		}
		return s, nil
	}
	if err := ar.ev.Reset(cfg); err != nil {
		return nil, err
	}
	return ar.ev, nil
}

func (r *Runner) replicate(sp *Spec, rep int, ar *arena) (*replication, error) {
	if r.runRep != nil {
		return r.runRep(sp, rep)
	}
	return runReplication(sp, rep, ar)
}

func (r *Runner) parallelism() int {
	if r.Parallelism > 0 {
		return r.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// ensurePool starts the worker pool on first use.
func (r *Runner) ensurePool() *workerPool {
	r.poolOnce.Do(func() {
		p := &workerPool{jobs: make(chan func(*arena))}
		workers := r.parallelism()
		if r.Metrics != nil {
			r.Metrics.Workers.Set(int64(workers))
		}
		p.wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer p.wg.Done()
				ar := &arena{}
				for fn := range p.jobs {
					fn(ar)
				}
			}()
		}
		r.pool = p
	})
	return r.pool
}

// Close stops the worker pool and releases its arenas. The contract —
// relied on by the public wlan.Lab facade, which exposes it directly:
//
//   - Idempotent: any number of Close calls, from any goroutines, are
//     safe; every call returns only once teardown is complete.
//   - Safe concurrently with in-flight batches: Close first marks the
//     runner closed (new Run* calls fail with ErrClosed immediately),
//     then waits for every in-flight batch to finish before stopping
//     the workers. It never aborts running simulations.
//   - A no-op on a Runner that never ran.
//
// Close must not be called from inside a batch's done callback: the
// callback runs within the batch Close is waiting on, so it would
// deadlock.
func (r *Runner) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.closeOnce.Do(func() {
		r.active.Wait()
		if r.pool != nil {
			close(r.pool.jobs)
			r.pool.wg.Wait()
		}
	})
}

// begin registers one in-flight batch, failing if Close has begun.
func (r *Runner) begin() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	r.active.Add(1)
	return nil
}

// Run executes one spec and returns its aggregate summary.
func (r *Runner) Run(ctx context.Context, spec *Spec) (*Summary, error) {
	sums, err := r.RunBatch(ctx, []*Spec{spec})
	if err != nil {
		return nil, err
	}
	return sums[0], nil
}

// RunSuite executes every scenario of a suite, fanning all replications
// of all scenarios into one worker pool.
func (r *Runner) RunSuite(ctx context.Context, su *Suite) ([]*Summary, error) {
	specs := make([]*Spec, len(su.Scenarios))
	for i := range su.Scenarios {
		specs[i] = &su.Scenarios[i]
	}
	return r.RunBatch(ctx, specs)
}

// RunBatch validates the given specs and executes all their
// replications through the shared worker pool — the repository's single
// simulation fan-out path (the experiment harness routes its sweeps
// through here too). It returns one Summary per spec, in spec order.
func (r *Runner) RunBatch(ctx context.Context, specs []*Spec) ([]*Summary, error) {
	sums := make([]*Summary, len(specs))
	err := r.RunBatchFunc(ctx, specs, func(i int, sum *Summary) error {
		sums[i] = sum
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sums, nil
}

// RunBatchFunc executes all replications of all specs through the
// worker pool and invokes done(i, summary) as each spec's last
// replication lands — in completion order, not spec order, which is
// what lets a sweep pipeline thousands of small points through one pool
// without barrier stalls. done calls are serialised (never concurrent)
// but may run on worker goroutines; a non-nil error from done aborts
// the batch, draining every remaining replication unsimulated. Specs
// that complete before any failure are still reported.
//
// Cancelling ctx aborts the batch at replication granularity: the
// replication a worker is simulating runs to completion, every
// not-yet-started replication drains unsimulated, and RunBatchFunc
// returns ctx.Err() — after all of its workers have gone quiet, so a
// cancelled call leaks nothing. A batch whose replications all
// completed before the cancellation was observed reports its results
// normally.
//
// Which error wins is deterministic in the recorded facts: a simulation
// failure beats everything, and among simulation failures the error of
// the lowest (spec, replication) index is returned whatever the
// scheduling; next a done-callback error; context cancellation is
// reported only when nothing else failed.
func (r *Runner) RunBatchFunc(ctx context.Context, specs []*Spec, done func(i int, sum *Summary) error) error {
	if err := r.begin(); err != nil {
		return err
	}
	defer r.active.Done()

	type job struct{ si, rep int }
	var jobs []job
	results := make([][]*replication, len(specs))
	remaining := make([]int, len(specs))
	for i, sp := range specs {
		if err := sp.withDefaults(); err != nil {
			name := sp.Name
			if name == "" {
				name = fmt.Sprintf("spec %d", i)
			}
			return fmt.Errorf("scenario %s: %w", name, err)
		}
		results[i] = make([]*replication, sp.Seeds)
		remaining[i] = sp.Seeds
		for rep := 0; rep < sp.Seeds; rep++ {
			jobs = append(jobs, job{i, rep})
		}
	}

	var (
		pending  sync.WaitGroup
		mu       sync.Mutex // guards results/remaining/firstErr/firstJob/doneErr
		emitMu   sync.Mutex // serialises done callbacks, off the result lock
		failed   atomic.Bool
		canceled atomic.Bool
		firstErr error
		doneErr  error
		firstJob = len(jobs) // index of the erroring job, for determinism
	)
	process := func(ar *arena, ji int) {
		defer pending.Done()
		// Cancellation drains the job unsimulated. Unlike a simulation
		// failure there is no index to keep deterministic — whichever
		// jobs were in flight at cancel time finish, the rest never
		// start — and ctx.Err() is only reported when no simulation or
		// callback error was recorded.
		if ctx.Err() != nil {
			canceled.Store(true)
			return
		}
		// Fail fast: once any replication has errored, drain the
		// remaining jobs without simulating them — but only jobs above
		// the currently recorded erroring index. A job below it must
		// still run (it may itself error with a lower index), which
		// keeps the reported error exactly min-over-erroring-jobs for
		// every scheduling: the globally lowest erroring index can never
		// be skipped, because skipping requires an even lower recorded
		// one. A done-callback failure (doneErr) aborts outright: it is
		// environmental (an emit pipe, a cache disk), not tied to a job
		// index.
		if failed.Load() {
			mu.Lock()
			skip := doneErr != nil || (firstErr != nil && ji > firstJob)
			mu.Unlock()
			if skip {
				return
			}
		}
		j := jobs[ji]
		r.Metrics.begin()
		rep, err := r.replicate(specs[j.si], j.rep, ar)
		var events uint64
		if err == nil && rep != nil && rep.res != nil {
			events = rep.res.EventsFired
		}
		r.Metrics.end(events, err == nil)
		mu.Lock()
		if err != nil {
			failed.Store(true)
			// Keep the error of the lowest job index so the reported
			// failure does not depend on scheduling.
			if ji < firstJob {
				firstJob, firstErr = ji, fmt.Errorf("scenario %q replication %d: %w", specs[j.si].Name, j.rep, err)
			}
			mu.Unlock()
			return
		}
		results[j.si][j.rep] = rep
		remaining[j.si]--
		complete := remaining[j.si] == 0
		mu.Unlock()
		if !complete || done == nil {
			return
		}
		// This worker owns the spec's results now (remaining hit zero),
		// so summarising and reporting happen outside the result lock:
		// other workers storing replications never wait on the
		// callback's IO (cache writes, row emission).
		emitMu.Lock()
		err = done(j.si, summarize(specs[j.si], results[j.si]))
		emitMu.Unlock()
		results[j.si] = nil // the summary owns the data now
		if err != nil {
			mu.Lock()
			if doneErr == nil {
				doneErr = err
			}
			mu.Unlock()
			failed.Store(true)
		}
	}
	pool := r.ensurePool()
	for ji := range jobs {
		ji := ji
		pending.Add(1)
		pool.jobs <- func(ar *arena) { process(ar, ji) }
	}
	pending.Wait()
	if firstErr != nil {
		return firstErr
	}
	if doneErr != nil {
		return doneErr
	}
	if canceled.Load() {
		return ctx.Err()
	}
	return nil
}

// replication is the raw outcome of one seeded run.
type replication struct {
	res         *eventsim.Result
	hiddenPairs int64
	converged   float64 // bits/s after warmup
	frames      int     // capture only
	stJain      float64 // capture only
}

// runReplication assembles and executes one seeded simulation on the
// worker's arena.
func runReplication(sp *Spec, rep int, ar *arena) (*replication, error) {
	repSeed := sp.Seed + int64(rep)
	tp, err := BuildTopology(&sp.Topology, repSeed)
	if err != nil {
		return nil, err
	}
	n := tp.N()
	policies, controller, err := scheme.Build(sp.Scheme, sp.Weights, n)
	if err != nil {
		return nil, err
	}
	cfg := eventsim.Config{
		PHY:            model.PaperPHY(),
		Topology:       tp,
		Policies:       policies,
		Controller:     controller,
		UpdatePeriod:   sim.Duration(sp.UpdatePeriod),
		Seed:           repSeed,
		RTSCTS:         sp.RTSCTS,
		FrameErrorRate: sp.FrameErrorRate,
		Arrivals:       sp.arrivals(n),
	}
	var capBuf bytes.Buffer
	var capWriter *trace.Writer
	if sp.Capture {
		capWriter = trace.NewWriter(&capBuf)
		cfg.Trace = capWriter
	}
	s, err := ar.simulator(cfg)
	if err != nil {
		return nil, err
	}
	for _, step := range sp.Churn {
		if err := s.SetActiveAt(sim.Time(step.At), step.Active); err != nil {
			return nil, err
		}
	}
	res := s.Run(sim.Duration(sp.Duration))
	out := &replication{
		res:         res,
		hiddenPairs: tp.HiddenPairCount(),
		converged:   res.ConvergedThroughput(sim.Duration(*sp.Warmup)),
	}
	if capWriter != nil {
		if err := capWriter.Close(); err != nil {
			return nil, err
		}
		// The writer already counted the frames it encoded, so the
		// capture is decoded exactly once (for the windowed fairness
		// index).
		out.frames = capWriter.Count()
		_, stJain, err := trace.ShortTermFairness(bytes.NewReader(capBuf.Bytes()), sp.CaptureWindow)
		if err != nil {
			return nil, err
		}
		out.stJain = stJain
	}
	return out, nil
}
