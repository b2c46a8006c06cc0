package svc

import "errors"

// Typed sentinel errors of the control plane. The coordinator returns
// them through the HTTP error envelope (see proto.go) and the client
// reconstructs them from the wire code, so a worker three machines away
// branches with errors.Is exactly like an in-process caller. The wlan
// facade re-wraps ErrLeaseExpired and ErrCoordinatorUnavailable onto
// its public sentinel surface.
var (
	// ErrLeaseExpired marks operations on a lease whose TTL lapsed (or
	// that already completed): the coordinator has reclaimed the lease's
	// points and may have reissued them. Completions are NOT subject to
	// it — a late completion after reissue is accepted idempotently —
	// only heartbeats and other lease-keyed operations are.
	ErrLeaseExpired = errors.New("svc: lease expired")
	// ErrUnknownLease marks operations naming a lease ID the
	// coordinator never granted (or has forgotten after a restart —
	// workers recover by requesting a fresh lease).
	ErrUnknownLease = errors.New("svc: unknown lease")
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
