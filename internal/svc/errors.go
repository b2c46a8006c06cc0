package svc

import "errors"

// Typed sentinel errors of the control plane. The coordinator returns
// them through the HTTP error envelope (see proto.go) and the client
// reconstructs them from the wire code, so a worker three machines away
// branches with errors.Is exactly like an in-process caller. The wlan
// facade re-wraps ErrLeaseExpired and ErrCoordinatorUnavailable onto
// its public sentinel surface.
var (
	// ErrLeaseExpired marks operations on a lease that is not live: its
	// TTL lapsed, it already completed, or this coordinator never
	// granted it (a lease from before a restart). The coordinator no
	// longer counts on the lease's holder, and any of its points may be
	// reissued; the worker recovers by requesting a fresh lease.
	// Completions are NOT subject to it — a late completion after
	// reissue is accepted idempotently — only heartbeats are.
	ErrLeaseExpired = errors.New("svc: lease expired")
	// ErrDraining marks lease requests refused because the coordinator
	// is shutting down gracefully: in-flight leases may still complete,
	// but no new work leaves the queue.
	ErrDraining = errors.New("svc: coordinator draining")
	// ErrCoordinatorUnavailable marks client calls that exhausted their
	// retry budget without an answer: the coordinator is unreachable,
	// partitioned away, or persistently failing. It wraps the last
	// transport error. The coordinator never sends it, so it has no wire
	// code.
	ErrCoordinatorUnavailable = errors.New("svc: coordinator unavailable")
	// ErrCampaignFailed marks a campaign the coordinator gave up on: a
	// point exceeded MaxReissues lease reissues without ever
	// completing, which means some input poisons every worker that
	// touches it (or the fleet cannot hold a lease for one TTL). It
	// travels as the LeaseResponse.Failed flag, not as a wire code.
	ErrCampaignFailed = errors.New("svc: campaign failed")
)

// errBadRequest marks requests the coordinator rejects as malformed or
// self-contradictory (wire code bad_request, terminal at the client —
// retrying the same bytes cannot succeed).
var errBadRequest = errors.New("svc: bad request")
