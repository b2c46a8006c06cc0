package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/scenario"
)

// errWorkerKilled marks a worker stopped by Kill — the chaos harness's
// crash switch. A killed worker never completes its in-flight lease and
// never heartbeats again, which is exactly what a SIGKILLed process
// looks like from the coordinator's side. It never crosses the wire.
var errWorkerKilled = errors.New("svc: worker killed")

// WorkerConfig configures a sweep worker.
type WorkerConfig struct {
	// Client is the control-plane connection. Required.
	Client *Client
	// ID names the worker in logs and coordinator metrics.
	ID string
	// Runner executes leased specs; when nil the worker owns a private
	// scenario.Runner with Parallelism.
	Runner *scenario.Runner
	// Parallelism sizes the private runner (ignored when Runner is
	// set; 0 = GOMAXPROCS).
	Parallelism int
	// MaxBatch is the lease size the worker asks for (the coordinator
	// may cap it; 0 = coordinator's default).
	MaxBatch int
	// PollInterval is how long to wait when the queue is empty but the
	// campaign is not done — everything unfinished is leased to someone
	// else, so the worker politely re-asks (default 200ms).
	PollInterval time.Duration
	// Metrics, when non-nil, counts simulated points and retries.
	Metrics *WorkerMetrics
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Worker is the lease → simulate → complete loop. It heartbeats each
// lease at a third of its TTL, abandons a batch the moment the
// coordinator reports the lease expired (the points are someone else's
// now), and submits completions even when they will arrive late —
// the coordinator's idempotency layer absorbs the overlap.
type Worker struct {
	cfg        WorkerConfig
	runner     *scenario.Runner
	ownsRunner bool

	killOnce sync.Once
	kill     chan struct{}
}

// NewWorker validates cfg and returns a runnable worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("svc: worker needs a client")
	}
	if cfg.ID == "" {
		cfg.ID = "worker"
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	w := &Worker{cfg: cfg, runner: cfg.Runner, kill: make(chan struct{})}
	if w.runner == nil {
		w.runner = &scenario.Runner{Parallelism: cfg.Parallelism}
		w.ownsRunner = true
	}
	return w, nil
}

// Kill crash-stops the worker: heartbeats cease, the in-flight batch is
// dropped on the floor, and Run returns errWorkerKilled. Unlike context
// cancellation it models failure, not shutdown — nothing is flushed.
func (w *Worker) Kill() {
	w.killOnce.Do(func() { close(w.kill) })
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Run pulls leases until the campaign completes, fails, or the
// coordinator drains, returning nil on every graceful outcome. A
// context cancellation or retry-budget exhaustion surfaces as an error.
func (w *Worker) Run(ctx context.Context) error {
	if w.ownsRunner {
		defer w.runner.Close()
	}
	// The kill switch folds into the context so in-flight simulation
	// and retry sleeps abort with the worker.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-w.kill:
			cancel()
		case <-ctx.Done():
		}
	}()
	for {
		if err := w.checkAlive(ctx); err != nil {
			return err
		}
		resp, err := w.cfg.Client.Lease(ctx, &LeaseRequest{WorkerID: w.cfg.ID, MaxPoints: w.cfg.MaxBatch})
		switch {
		case errors.Is(err, ErrDraining):
			w.logf("wlansvc: worker %s: coordinator draining, exiting", w.cfg.ID)
			return nil
		case err != nil:
			return w.aliveErr(err)
		case resp.Failed:
			return fmt.Errorf("%w: coordinator abandoned the campaign", ErrCampaignFailed)
		case resp.Done:
			w.logf("wlansvc: worker %s: campaign done", w.cfg.ID)
			return nil
		case len(resp.Points) == 0:
			select {
			case <-ctx.Done():
				return w.aliveErr(ctx.Err())
			case <-time.After(w.cfg.PollInterval):
			}
			continue
		}
		done, err := w.processLease(ctx, resp)
		if err != nil {
			return w.aliveErr(err)
		}
		if done {
			w.logf("wlansvc: worker %s: campaign done", w.cfg.ID)
			return nil
		}
	}
}

// checkAlive maps the kill switch onto errWorkerKilled.
func (w *Worker) checkAlive(ctx context.Context) error {
	select {
	case <-w.kill:
		return errWorkerKilled
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// aliveErr rewrites a cancellation caused by Kill as errWorkerKilled.
func (w *Worker) aliveErr(err error) error {
	select {
	case <-w.kill:
		return errWorkerKilled
	default:
		return err
	}
}

// processLease simulates one leased batch under heartbeat cover and
// submits the completions. It reports whether the campaign finished.
func (w *Worker) processLease(ctx context.Context, l *LeaseResponse) (done bool, err error) {
	// Heartbeat at a third of the TTL: two renewals can be lost before
	// the lease lapses. If the coordinator answers a heartbeat with
	// lease_expired, the batch is abandoned — its points are already
	// back in the queue, likely under someone else's lease.
	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	expired := make(chan struct{})
	interval := time.Duration(l.TTLMS) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				select {
				case <-w.kill:
					// Dead workers don't heartbeat: renewing the lease
					// after Kill would keep the coordinator waiting on
					// a worker that will never complete.
					return
				default:
				}
				if _, err := w.cfg.Client.Heartbeat(hbCtx, &HeartbeatRequest{LeaseID: l.LeaseID}); err != nil {
					if errors.Is(err, ErrLeaseExpired) || errors.Is(err, ErrUnknownLease) {
						close(expired)
						return
					}
					// Unreachable after retries: keep simulating — the
					// completion itself may still land in time, and is
					// idempotent if it does not.
					w.logf("wlansvc: worker %s: heartbeat for %s failed: %v", w.cfg.ID, l.LeaseID, err)
				}
			}
		}
	}()

	simCtx, simCancel := context.WithCancel(ctx)
	defer simCancel()
	go func() {
		select {
		case <-expired:
			simCancel()
		case <-simCtx.Done():
		}
	}()

	specs := make([]*scenario.Spec, len(l.Points))
	for i, lp := range l.Points {
		sp := &scenario.Spec{}
		if err := json.Unmarshal(lp.Spec, sp); err != nil {
			return false, fmt.Errorf("svc: worker %s: lease %s point %d spec: %w", w.cfg.ID, l.LeaseID, lp.Index, err)
		}
		specs[i] = sp
	}
	sums, err := w.runner.RunBatch(simCtx, specs)
	if err != nil {
		select {
		case <-expired:
			// The lease lapsed under us; the work is abandoned, not
			// failed. Go ask for a fresh lease.
			w.logf("wlansvc: worker %s: lease %s expired mid-batch, abandoning %d point(s)", w.cfg.ID, l.LeaseID, len(l.Points))
			return false, nil
		default:
			return false, err
		}
	}
	hbCancel()
	// The kill switch is checked synchronously before submitting: a
	// crashed process cannot report work it finished an instant before
	// dying, and neither may a Killed worker — the context-cancel path
	// alone leaves a goroutine-scheduling window where a fast batch
	// could slip its completion out after death.
	if err := w.checkAlive(ctx); err != nil {
		return false, err
	}
	if w.cfg.Metrics != nil {
		w.cfg.Metrics.PointsSimulated.Add(uint64(len(sums)))
	}

	req := &CompleteRequest{LeaseID: l.LeaseID, WorkerID: w.cfg.ID, Points: make([]CompletedPoint, len(sums))}
	for i, sum := range sums {
		data, err := json.Marshal(sum)
		if err != nil {
			return false, fmt.Errorf("svc: worker %s: marshal summary for point %d: %w", w.cfg.ID, l.Points[i].Index, err)
		}
		req.Points[i] = CompletedPoint{Index: l.Points[i].Index, Key: l.Points[i].Key, Summary: data}
	}
	resp, err := w.cfg.Client.Complete(ctx, req)
	if err != nil {
		return false, err
	}
	if resp.Duplicates > 0 {
		w.logf("wlansvc: worker %s: lease %s: %d completion(s) were duplicates (lease was reissued)", w.cfg.ID, l.LeaseID, resp.Duplicates)
	}
	return resp.Done, nil
}
