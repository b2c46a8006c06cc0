package wlan

import (
	"context"
	"errors"

	"repro/internal/scenario"
	"repro/internal/svc"
	"repro/internal/sweep"
)

// Typed sentinel errors. Every error returned by the package wraps at
// most one of these, so callers branch with errors.Is instead of
// matching message strings:
//
//	sum, err := lab.RunScenario(ctx, sc)
//	switch {
//	case errors.Is(err, wlan.ErrInvalidConfig): // fix the input
//	case errors.Is(err, wlan.ErrCanceled):      // ctx was cancelled
//	case errors.Is(err, wlan.ErrClosed):        // lab already closed
//	}
var (
	// ErrInvalidConfig marks validation failures: a Config, Scenario,
	// Suite or sweep Grid that cannot describe a simulation. The wrapped
	// message names the offending field.
	ErrInvalidConfig = errors.New("wlan: invalid config")
	// ErrCanceled marks runs aborted by context cancellation or
	// deadline expiry. Errors wrapping it also wrap the context's own
	// error, so errors.Is(err, context.Canceled) keeps working.
	ErrCanceled = errors.New("wlan: run canceled")
	// ErrClosed marks calls on a Lab after Close.
	ErrClosed = errors.New("wlan: lab is closed")
	// ErrLeaseExpired marks sweep-service work abandoned because the
	// coordinator reissued the worker's lease to someone else. The
	// points are not lost — they complete under the new lease.
	ErrLeaseExpired = errors.New("wlan: sweep lease expired")
	// ErrCoordinatorUnavailable marks a sweep-service worker that
	// exhausted its retry budget without reaching the coordinator.
	ErrCoordinatorUnavailable = errors.New("wlan: sweep coordinator unavailable")
)

// wrapErr maps internal-layer errors onto the package's typed sentinel
// surface. Errors that already carry a sentinel — and simulation errors
// that match none — pass through unchanged.
func wrapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrInvalidConfig), errors.Is(err, ErrCanceled), errors.Is(err, ErrClosed):
		return err
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return &wrappedErr{sentinel: ErrCanceled, err: err}
	case errors.Is(err, scenario.ErrInvalidSpec), errors.Is(err, sweep.ErrInvalidGrid):
		return &wrappedErr{sentinel: ErrInvalidConfig, err: err}
	case errors.Is(err, scenario.ErrClosed):
		return &wrappedErr{sentinel: ErrClosed, err: err}
	case errors.Is(err, svc.ErrLeaseExpired):
		return &wrappedErr{sentinel: ErrLeaseExpired, err: err}
	case errors.Is(err, svc.ErrCoordinatorUnavailable):
		return &wrappedErr{sentinel: ErrCoordinatorUnavailable, err: err}
	}
	return err
}

// wrappedErr attaches a sentinel to an underlying error without
// rewriting its message twice: the message is "<sentinel>: <cause>" and
// errors.Is matches both.
type wrappedErr struct {
	sentinel error
	err      error
}

func (w *wrappedErr) Error() string { return w.sentinel.Error() + ": " + w.err.Error() }

func (w *wrappedErr) Unwrap() []error { return []error{w.sentinel, w.err} }
