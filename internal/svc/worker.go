package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/scenario"
)

// WorkerConfig configures a sweep worker.
type WorkerConfig struct {
	// Client is the control-plane connection. Required.
	Client *Client
	// ID names the worker in logs and coordinator metrics.
	ID string
	// Runner executes leased specs. Required; the caller owns it and
	// closes it after Run returns.
	Runner *scenario.Runner
	// MaxBatch is the lease size the worker asks for (the coordinator
	// may cap it; 0 = coordinator's default).
	MaxBatch int
	// PollInterval is how long to wait when the queue is empty but the
	// campaign is not done — everything unfinished is leased to someone
	// else, so the worker politely re-asks (default 200ms).
	PollInterval time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Worker is the lease → simulate → complete loop. It heartbeats each
// lease at a third of its TTL, abandons a batch the moment the
// coordinator reports the lease expired (the points are someone else's
// now), and submits completions even when they will arrive late —
// the coordinator's idempotency layer absorbs the overlap. Cancelling
// Run's context stops it dead: a cancelled context sends nothing, so a
// cancelled worker neither heartbeats nor completes, which is what a
// crashed process looks like from the coordinator's side.
type Worker struct {
	cfg WorkerConfig
}

// NewWorker validates cfg and returns a runnable worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("svc: worker needs a client")
	}
	if cfg.Runner == nil {
		return nil, fmt.Errorf("svc: worker needs a scenario runner")
	}
	if cfg.ID == "" {
		cfg.ID = "worker"
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	return &Worker{cfg: cfg}, nil
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
	for {
		resp, err := w.cfg.Client.Lease(ctx, &LeaseRequest{WorkerID: w.cfg.ID, MaxPoints: w.cfg.MaxBatch})
		switch {
		case errors.Is(err, ErrDraining):
			w.logf("wlansvc: worker %s: coordinator draining, exiting", w.cfg.ID)
			return nil
		case err != nil:
			return err
		case resp.Failed:
			return fmt.Errorf("%w: coordinator abandoned the campaign", ErrCampaignFailed)
		case resp.Done:
			w.logf("wlansvc: worker %s: campaign done", w.cfg.ID)
			return nil
		case len(resp.Points) == 0:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.cfg.PollInterval):
			}
			continue
		}
		done, err := w.processLease(ctx, resp)
		if err != nil {
			return err
		}
		if done {
			w.logf("wlansvc: worker %s: campaign done", w.cfg.ID)
			return nil
		}
	}
}

// processLease simulates one leased batch under heartbeat cover and
// submits the completions. It reports whether the campaign finished.
func (w *Worker) processLease(ctx context.Context, l *LeaseResponse) (done bool, err error) {
	// Heartbeat at a third of the TTL: two renewals can be lost before
	// the lease lapses. If the coordinator answers a heartbeat with
	// lease_expired, the heartbeat ends the batch with that answer as
	// the cause — its points are already back in the queue, likely
	// under someone else's lease.
	batchCtx, endBatch := context.WithCancelCause(ctx)
	heartbeatsDone := make(chan struct{})
	defer func() {
		endBatch(nil)
		<-heartbeatsDone
	}()
	interval := time.Duration(l.TTLMS) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		defer close(heartbeatsDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-batchCtx.Done():
				return
			case <-t.C:
				if _, err := w.cfg.Client.Heartbeat(batchCtx, &HeartbeatRequest{LeaseID: l.LeaseID}); err != nil {
					if errors.Is(err, ErrLeaseExpired) {
						endBatch(err)
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

	specs := make([]*scenario.Spec, len(l.Points))
	for i, lp := range l.Points {
		sp := &scenario.Spec{}
		if err := json.Unmarshal(lp.Spec, sp); err != nil {
			return false, fmt.Errorf("svc: worker %s: lease %s point %d spec: %w", w.cfg.ID, l.LeaseID, lp.Index, err)
		}
		specs[i] = sp
	}
	sums, err := w.cfg.Runner.RunBatch(batchCtx, specs)
	if err != nil {
		if ctx.Err() == nil && batchCtx.Err() != nil {
			// The lease lapsed under us; the work is abandoned, not
			// failed. Go ask for a fresh lease.
			w.logf("wlansvc: worker %s: lease %s expired mid-batch, abandoning %d point(s)", w.cfg.ID, l.LeaseID, len(l.Points))
			return false, nil
		}
		return false, err
	}
	endBatch(nil)

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
