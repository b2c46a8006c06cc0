package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/eventsim"
	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrClosed is returned by Run/RunSuite/RunBatch/RunBatchFunc on a
// Runner whose Close has begun.
var ErrClosed = errors.New("scenario: runner is closed")

// Runner executes scenario replications across a persistent worker
// pool. Workers start lazily on the first run and live until Close;
// each worker owns one eventsim.Simulator that it Resets per
// replication, reusing the simulator's arena, so steady-state sweep
// execution performs no per-replication construction allocations and
// no goroutine churn.
//
// Determinism contract: replication r of a spec always runs with seed
// Seed+r and its own RNG substreams — no state is shared between
// replications (Simulator.Reset is bit-identical to a fresh build) —
// and aggregation folds replication results in index order. The
// aggregate Summary is therefore bit-identical for any Parallelism
// setting and any worker/simulator assignment, a property the golden
// tests pin.
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
// tasks from one channel, each holding a private simulator.
type workerPool struct {
	jobs    chan task
	workers int
	wg      sync.WaitGroup
}

// task is one job for a pool worker: run(ev, i) on the worker's
// simulator.
type task struct {
	run func(ev *eventsim.Simulator, i int)
	i   int
}

func (r *Runner) runOne(sp *Spec, rep int, ev *eventsim.Simulator) (*replication, error) {
	if r.runRep != nil {
		return r.runRep(sp, rep)
	}
	return runReplication(sp, rep, ev)
}

// ensurePool starts the worker pool on first use.
func (r *Runner) ensurePool() *workerPool {
	r.poolOnce.Do(func() {
		p := &workerPool{jobs: make(chan task), workers: r.Parallelism}
		if p.workers <= 0 {
			p.workers = runtime.GOMAXPROCS(0)
		}
		if r.Metrics != nil {
			r.Metrics.Workers.Set(int64(p.workers))
		}
		p.wg.Add(p.workers)
		for w := 0; w < p.workers; w++ {
			go func() {
				defer p.wg.Done()
				ev := new(eventsim.Simulator)
				for t := range p.jobs {
					t.run(ev, t.i)
				}
			}()
		}
		r.pool = p
	})
	return r.pool
}

// Close stops the worker pool and releases its simulators. The contract —
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
// without barrier stalls. done runs on the calling goroutine, one call
// at a time, so it may block, panic or re-enter the Runner; a non-nil
// error from done aborts the batch, and no further replication starts.
// Specs that complete before any failure are still reported.
//
// Cancelling ctx aborts the batch at replication granularity: the
// replications already handed to workers run to completion, no further
// one starts, and RunBatchFunc returns ctx.Err() — after every
// replication it started has come back, so a cancelled call leaks
// nothing. A batch whose replications all started before the
// cancellation was observed reports its results normally.
//
// Which error wins is deterministic in the recorded facts: a simulation
// failure beats everything, and among simulation failures the error of
// the lowest (spec, replication) index is returned whatever the
// scheduling; next a done-callback error; context cancellation is
// reported only when nothing else failed.
//
// The calling goroutine alone owns the batch state: it hands jobs to
// the pool in ascending index order and receives every outcome on a
// per-batch channel with room for one outcome per worker, so a worker
// never waits on the caller. Sending stops at the first recorded
// failure; because sends are ascending, every index below a recorded
// simulation error has already been sent, which is what makes the
// lowest-index rule hold with no skip check in the workers.
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
		if err := sp.Validate(); err != nil {
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

	type outcome struct {
		ji  int
		rep *replication
		err error
	}
	pool := r.ensurePool()
	// At most one job per worker is in flight, so with a slot per
	// worker a worker's send never blocks.
	outcomes := make(chan outcome, pool.workers)
	simulate := func(ev *eventsim.Simulator, ji int) {
		j := jobs[ji]
		r.Metrics.begin()
		rep, err := r.runOne(specs[j.si], j.rep, ev)
		var events uint64
		if err == nil && rep != nil && rep.res != nil {
			events = rep.res.EventsFired
		}
		r.Metrics.end(events, err == nil)
		outcomes <- outcome{ji, rep, err}
	}

	var (
		firstErr error
		doneErr  error
		canceled bool
		firstJob = len(jobs) // index of the erroring job, for determinism
		next     int         // the next job to send
		inFlight int         // jobs sent whose outcome is not yet received
	)
	// Receive every outcome still in flight before returning, also when
	// done panics, so the batch's replications have all finished when
	// RunBatchFunc unwinds.
	defer func() {
		for ; inFlight > 0; inFlight-- {
			<-outcomes
		}
	}()
	for {
		var send chan<- task
		var cancel <-chan struct{}
		if next < len(jobs) && inFlight < cap(outcomes) && firstErr == nil && doneErr == nil && !canceled {
			if ctx.Err() != nil {
				canceled = true
			} else {
				send, cancel = pool.jobs, ctx.Done()
			}
		}
		if send == nil && inFlight == 0 {
			break
		}
		select {
		case send <- task{simulate, next}:
			next++
			inFlight++
		case <-cancel:
			canceled = true
		case o := <-outcomes:
			inFlight--
			j := jobs[o.ji]
			if o.err != nil {
				// Keep the error of the lowest job index so the reported
				// failure does not depend on scheduling.
				if o.ji < firstJob {
					firstJob, firstErr = o.ji, fmt.Errorf("scenario %q replication %d: %w", specs[j.si].Name, j.rep, o.err)
				}
				continue
			}
			results[j.si][j.rep] = o.rep
			if remaining[j.si]--; remaining[j.si] > 0 || done == nil {
				continue
			}
			err := done(j.si, summarize(specs[j.si], results[j.si]))
			results[j.si] = nil // the summary owns the data now
			if err != nil && doneErr == nil {
				doneErr = err
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if doneErr != nil {
		return doneErr
	}
	if canceled {
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

// runReplication resets the worker's simulator for one seeded run and
// reduces it to what the summary needs: EngineConfig for seed
// sp.Seed+rep, the frame tracer of a capture, the churn schedule
// through SetActiveAt (a step at t=0 included), then sp.Duration of
// simulated time.
func runReplication(sp *Spec, rep int, s *eventsim.Simulator) (*replication, error) {
	cfg, err := EngineConfig(sp, sp.Seed+int64(rep))
	if err != nil {
		return nil, err
	}
	var capture *captureTracer
	if sp.Capture {
		capture = &captureTracer{}
		cfg.Trace = capture
	}
	if err := s.Reset(cfg); err != nil {
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
		hiddenPairs: cfg.Topology.HiddenPairCount(),
		converged:   res.ConvergedThroughput(sim.Duration(*sp.Warmup)),
	}
	if capture != nil {
		_, stJain, err := trace.WindowFairness(capture.sources, sp.CaptureWindow)
		if err != nil {
			return nil, err
		}
		out.frames, out.stJain = capture.frames, stJain
	}
	return out, nil
}

// captureTracer is a capture-enabled replication's frame tracer: it
// counts the frames and keeps the sources of the delivered data frames,
// in order — all the summary's capture statistics need.
type captureTracer struct {
	frames  int
	sources []int
}

func (c *captureTracer) Frame(_ sim.Time, f frame.Layer, collided bool) {
	c.frames++
	if d, ok := f.(*frame.Data); ok && !collided {
		c.sources = append(c.sources, int(d.Source))
	}
}
