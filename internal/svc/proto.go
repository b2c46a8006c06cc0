package svc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// The wire protocol of the sweep service: small JSON request/response
// pairs over HTTP POST (plus two GET read paths). The shapes are
// deliberately boring — every field is either a number, a string, or a
// raw JSON payload that round-trips byte-exactly through the scenario
// and summary encoders — because the correctness contract downstream
// (byte-identical merged rows) leaves no room for lossy re-encoding.
//
//	POST /v1/lease      LeaseRequest      -> LeaseResponse
//	POST /v1/heartbeat  HeartbeatRequest  -> HeartbeatResponse
//	POST /v1/complete   CompleteRequest   -> CompleteResponse
//	GET  /v1/status                       -> StatusResponse
//	GET  /metrics                         -> Prometheus text format
//
// The merged rows are not served: they go to CoordinatorConfig.Out.
//
// Errors travel as an errorResponse envelope with a machine-readable
// code. One table, wireErrors, fixes each code's sentinel, HTTP status
// and retryability for both the coordinator and the client.

// LeaseRequest asks the coordinator for a batch of points to simulate.
type LeaseRequest struct {
	// WorkerID identifies the worker in logs and metrics; it does not
	// authenticate (the control plane trusts its network).
	WorkerID string `json:"worker_id"`
	// MaxPoints caps the batch size the worker wants; the coordinator
	// may grant fewer (and caps it at its own MaxBatch).
	MaxPoints int `json:"max_points"`
}

// LeasePoint is one leased unit of work: everything a worker needs to
// simulate the point and complete it idempotently.
type LeasePoint struct {
	// Index is the point's position in grid-expansion order — the
	// merge key of its row.
	Index int `json:"index"`
	// Name is the canonical point name.
	Name string `json:"name"`
	// Key is the point's content-addressed cache key; completions are
	// keyed on it, which is what makes duplicates detectable.
	Key string `json:"key"`
	// Spec is the fully defaulted, validated scenario spec as JSON.
	Spec json.RawMessage `json:"spec"`
}

// LeaseResponse grants a lease (or reports there is nothing to grant).
type LeaseResponse struct {
	// LeaseID names the lease for heartbeats and completions. Empty
	// when no points were granted.
	LeaseID string `json:"lease_id,omitempty"`
	// TTLMS is the lease's time-to-live in milliseconds; a heartbeat
	// resets the clock. A lease not renewed within the TTL expires and
	// its points return to the queue.
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// Points is the granted batch, in ascending index order.
	Points []LeasePoint `json:"points,omitempty"`
	// Done reports that the campaign is complete: every point is
	// satisfied and the worker can exit.
	Done bool `json:"done"`
	// Failed reports that the coordinator abandoned the campaign (see
	// ErrCampaignFailed); workers should exit rather than poll.
	Failed bool `json:"failed,omitempty"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	LeaseID string `json:"lease_id"`
}

// HeartbeatResponse confirms the renewal.
type HeartbeatResponse struct {
	// TTLMS is the renewed time-to-live in milliseconds.
	TTLMS int64 `json:"ttl_ms"`
}

// CompletedPoint reports one simulated point.
type CompletedPoint struct {
	// Index is the point's grid-expansion index.
	Index int `json:"index"`
	// Key must equal the leased point's cache key; it is the
	// idempotency token a duplicate or late completion is judged by.
	Key string `json:"key"`
	// Summary is the aggregate scenario summary as JSON, exactly as
	// the worker's encoder produced it.
	Summary json.RawMessage `json:"summary"`
}

// CompleteRequest submits a batch of finished points. Completions are
// idempotent: re-submitting after a lost response or an expired lease
// is safe, and each point counts once however many times it arrives.
type CompleteRequest struct {
	LeaseID  string           `json:"lease_id"`
	WorkerID string           `json:"worker_id"`
	Points   []CompletedPoint `json:"points"`
}

// CompleteResponse acknowledges a completion batch.
type CompleteResponse struct {
	// Accepted counts points this request newly satisfied.
	Accepted int `json:"accepted"`
	// Duplicates counts points that were already satisfied (late or
	// repeated completions) — acknowledged, not re-recorded.
	Duplicates int `json:"duplicates"`
	// Done reports campaign completion, sparing the worker one more
	// lease round-trip.
	Done bool `json:"done"`
}

// StatusResponse is the coordinator's observable campaign state: the
// campaign record's counters, inlined, beside the queue and lease state.
type StatusResponse struct {
	GridName    string `json:"grid_name,omitempty"`
	Fingerprint string `json:"fingerprint"`
	CampaignStats
	Pending  int  `json:"pending"`
	Leased   int  `json:"leased"`
	Draining bool `json:"draining"`
	Done     bool `json:"done"`
	Failed   bool `json:"failed,omitempty"`
}

// errorResponse is the JSON envelope every non-2xx response carries.
type errorResponse struct {
	Error apiError `json:"error"`
}

type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// wireError is one row of the error envelope's vocabulary: everything
// the coordinator and the client must agree on about one wire code.
type wireError struct {
	code string
	// sentinel is the coordinator-side error the code stands for, and
	// the one the client rebuilds so errors.Is works across the network.
	// Nil only for wireInternal, the fallback.
	sentinel error
	// status is the HTTP status the code travels with.
	status int
	// retryable marks codes the client retries; every other answered
	// request is terminal, because retrying only re-asks a question the
	// coordinator already settled.
	retryable bool
}

// wireInternal carries every coordinator-side failure no typed row
// claims (for example the cache refusing a write). It is the only
// retryable code: the request was fine, the coordinator could not honor
// it yet.
var wireInternal = wireError{code: "internal", status: http.StatusInternalServerError, retryable: true}

// wireErrors is the whole envelope vocabulary; adding a wire code means
// adding a row. lease_expired answers a heartbeat for any lease that is
// not live, whether it expired, completed or was never granted.
// Client-side sentinels (ErrCoordinatorUnavailable) and
// ErrCampaignFailed, which travels as LeaseResponse.Failed, have none.
var wireErrors = []wireError{
	{"lease_expired", ErrLeaseExpired, http.StatusGone, false},
	{"draining", ErrDraining, http.StatusServiceUnavailable, false},
	{"bad_request", errBadRequest, http.StatusBadRequest, false},
	wireInternal,
}

// wireForErr maps a coordinator-side error to the first typed row whose
// sentinel it wraps, or to wireInternal.
func wireForErr(err error) wireError {
	for _, w := range wireErrors {
		if w.sentinel != nil && errors.Is(err, w.sentinel) {
			return w
		}
	}
	return wireInternal
}

// wireForCode maps a wire code back to its row. A code this build does
// not know (a newer coordinator's vocabulary) degrades to an untyped,
// terminal 400 so it can neither crash nor stall an older worker.
func wireForCode(code string) wireError {
	for _, w := range wireErrors {
		if w.code == code {
			return w
		}
	}
	return wireError{code: code, status: http.StatusBadRequest}
}

// clientErr is the error the client surfaces for an answer carrying
// this row's code: the sentinel wrapped around the coordinator's
// message, or a plain error for untyped codes.
func (w wireError) clientErr(message string) error {
	if w.sentinel == nil {
		return errors.New("svc: " + w.code + ": " + message)
	}
	return fmt.Errorf("%w: %s", w.sentinel, message)
}
