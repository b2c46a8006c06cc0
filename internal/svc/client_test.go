package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fastClient is a test client with sub-millisecond backoff.
func fastClient(url string) *Client {
	return &Client{
		BaseURL:        url,
		MaxAttempts:    3,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     2 * time.Millisecond,
		AttemptTimeout: time.Second,
	}
}

// TestClientRetriesInternalThenSucceeds pins the retry policy's happy
// recovery: internal (5xx) answers are retried and the eventual success
// is returned after exactly two retries.
func TestClientRetriesInternalThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			writeError(w, errors.New("cache briefly unwritable"))
			return
		}
		json.NewEncoder(w).Encode(&HeartbeatResponse{TTLMS: 1234})
	}))
	defer srv.Close()
	cl := fastClient(srv.URL)
	resp, err := cl.Heartbeat(context.Background(), &HeartbeatRequest{LeaseID: "lease-1"})
	if err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if resp.TTLMS != 1234 || calls.Load() != 3 {
		t.Errorf("resp %+v after %d calls", resp, calls.Load())
	}
}

// TestClientProtocolErrorsAreTerminal pins the wireErrors table end to
// end. For every row, writeError of the row's sentinel answers with the
// row's status and code; the client surfaces the sentinel after exactly
// one attempt, and retries only the retryable internal row. A code the
// client does not know degrades to a terminal, untyped error.
func TestClientProtocolErrorsAreTerminal(t *testing.T) {
	for _, row := range wireErrors {
		t.Run(row.code, func(t *testing.T) {
			cause := row.sentinel
			if cause == nil {
				cause = errors.New("cache briefly unwritable")
			}
			cause = fmt.Errorf("%w: no", cause)
			rec := httptest.NewRecorder()
			writeError(rec, cause)
			var env errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("undecodable envelope: %v", err)
			}
			if rec.Code != row.status || env.Error.Code != row.code {
				t.Fatalf("writeError answered %d %q, want %d %q", rec.Code, env.Error.Code, row.status, row.code)
			}

			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				writeError(w, cause)
			}))
			defer srv.Close()
			_, err := fastClient(srv.URL).Heartbeat(context.Background(), &HeartbeatRequest{LeaseID: "x"})
			wantCalls := int64(1)
			if row.retryable {
				wantCalls = 3 // fastClient's whole budget
				if !errors.Is(err, ErrCoordinatorUnavailable) {
					t.Errorf("err %v, want ErrCoordinatorUnavailable after retries", err)
				}
			} else if !errors.Is(err, row.sentinel) {
				t.Errorf("err %v, want %v", err, row.sentinel)
			}
			if calls.Load() != wantCalls {
				t.Errorf("%d attempts, want %d", calls.Load(), wantCalls)
			}
		})
	}
	t.Run("unknown code", func(t *testing.T) {
		const code = "from_a_newer_coordinator"
		if got := wireForCode(code).status; got != http.StatusBadRequest {
			t.Errorf("unknown code travels as %d, want 400", got)
		}
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(&errorResponse{Error: apiError{Code: code, Message: "no"}})
		}))
		defer srv.Close()
		_, err := fastClient(srv.URL).Heartbeat(context.Background(), &HeartbeatRequest{LeaseID: "x"})
		if err == nil {
			t.Fatal("unknown code surfaced no error")
		}
		for _, row := range wireErrors {
			if row.sentinel != nil && errors.Is(err, row.sentinel) {
				t.Errorf("unknown code surfaced as typed %v", row.sentinel)
			}
		}
		if errors.Is(err, ErrCoordinatorUnavailable) || calls.Load() != 1 {
			t.Errorf("unknown code retried: err %v after %d attempts, want terminal after 1", err, calls.Load())
		}
	})
}

// TestClientExhaustionIsCoordinatorUnavailable pins the budget's end:
// a coordinator that never answers folds into
// ErrCoordinatorUnavailable wrapping the last transport failure.
func TestClientExhaustionIsCoordinatorUnavailable(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // nothing is listening anymore
	_, err := fastClient(srv.URL).Lease(context.Background(), &LeaseRequest{WorkerID: "w"})
	if !errors.Is(err, ErrCoordinatorUnavailable) {
		t.Fatalf("err %v, want ErrCoordinatorUnavailable", err)
	}
}

// TestClientCancellationBeatsTheBudget pins that a cancelled context
// aborts the retry loop promptly instead of draining the attempt
// budget.
func TestClientCancellationBeatsTheBudget(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cl := fastClient(srv.URL)
	cl.MaxAttempts = 1000
	cl.BaseBackoff = time.Hour // would hang if the budget were drained
	start := time.Now()
	_, err := cl.Lease(ctx, &LeaseRequest{WorkerID: "w"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancelled call did not return promptly")
	}
}
