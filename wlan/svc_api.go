package wlan

import (
	"context"

	"repro/internal/svc"
)

// The sweep-service worker entry point: ServeSweeps joins a Lab to a
// wlansvc coordinator as a lease-holding worker, executing leased
// points through the Lab's shared scenario pool. The coordinator owns
// the campaign manifest, the cache and the merged output; the Lab
// contributes cycles. See cmd/wlansvc for the daemon around both
// halves.

// ServeOption configures one ServeSweeps call.
type ServeOption func(*serveConfig)

type serveConfig struct {
	workerID string
	maxBatch int
	logf     func(format string, args ...any)
}

// WithWorkerID names this worker in coordinator logs and lease
// bookkeeping. Defaults to "worker"; give each joined process a
// distinct name when several Labs serve one campaign.
func WithWorkerID(id string) ServeOption {
	return func(c *serveConfig) { c.workerID = id }
}

// WithWorkerBatch caps how many points the worker requests per lease.
// Zero accepts the coordinator's default batch size.
func WithWorkerBatch(n int) ServeOption {
	return func(c *serveConfig) { c.maxBatch = n }
}

// WithServeLogf receives the worker's operational log lines (leases
// taken, batches abandoned, heartbeat trouble). Nil stays silent.
func WithServeLogf(logf func(format string, args ...any)) ServeOption {
	return func(c *serveConfig) { c.logf = logf }
}

// ServeSweeps joins the sweep-service campaign at coordinatorURL and
// works it until the campaign completes, fails, or ctx is cancelled.
// Leased points run on the Lab's scenario pool, so WithParallelism
// sizes this worker too.
//
// Graceful outcomes — campaign done, coordinator draining — return
// nil. A failed campaign, a cancellation (ErrCanceled) or an
// unreachable coordinator (ErrCoordinatorUnavailable) return an
// error. Lease expiry is not an error: the worker abandons the batch
// and leases fresh work.
func (l *Lab) ServeSweeps(ctx context.Context, coordinatorURL string, opts ...ServeOption) error {
	if err := l.guard(); err != nil {
		return err
	}
	cfg := serveConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	cl := &svc.Client{BaseURL: coordinatorURL, Logf: cfg.logf}
	w, err := svc.NewWorker(svc.WorkerConfig{
		Client:   cl,
		ID:       cfg.workerID,
		Runner:   l.pool(),
		MaxBatch: cfg.maxBatch,
		Logf:     cfg.logf,
	})
	if err != nil {
		return wrapErr(err)
	}
	return wrapErr(w.Run(ctx))
}
