package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Client is the worker side of the control plane: a small JSON-over-HTTP
// client with jittered exponential backoff and bounded per-attempt
// timeouts. Transport failures and coordinator-internal errors retry;
// protocol answers — even unhappy ones like lease_expired — are returned
// immediately as their typed sentinels, because retrying a answered
// request only re-asks a question the coordinator already settled.
// When the retry budget runs out the last failure is folded into
// ErrCoordinatorUnavailable.
type Client struct {
	// BaseURL is the coordinator's root, e.g. "http://127.0.0.1:8440".
	BaseURL string
	// HTTPClient overrides the transport (chaos tests inject their
	// fallible RoundTripper here). Default http.DefaultClient.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call, first attempt included
	// (default 6).
	MaxAttempts int
	// BaseBackoff is the first retry delay; each retry doubles it up to
	// MaxBackoff, and every delay is jittered to half-to-full of its
	// nominal value so a restarted fleet does not stampede (defaults
	// 100ms and 3s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// AttemptTimeout bounds each individual request (default 10s).
	AttemptTimeout time.Duration
	// Logf, when non-nil, receives retry log lines.
	Logf func(format string, args ...any)

	jitterOnce sync.Once
	jitterMu   sync.Mutex
	jitterRand *rand.Rand
}

// jitter maps d to a uniformly random delay in [d/2, d].
func (c *Client) jitter(d time.Duration) time.Duration {
	c.jitterOnce.Do(func() {
		// Seeded off the wall clock: the control plane sits outside the
		// determinism boundary, and distinct workers MUST de-correlate.
		c.jitterRand = rand.New(rand.NewSource(time.Now().UnixNano()))
	})
	c.jitterMu.Lock()
	defer c.jitterMu.Unlock()
	half := d / 2
	return half + time.Duration(c.jitterRand.Int63n(int64(half)+1))
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 6
}

func (c *Client) backoffBounds() (base, max time.Duration) {
	base, max = c.BaseBackoff, c.MaxBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 3 * time.Second
	}
	return base, max
}

func (c *Client) attemptTimeout() time.Duration {
	if c.AttemptTimeout > 0 {
		return c.AttemptTimeout
	}
	return 10 * time.Second
}

// Lease requests a batch of points.
func (c *Client) Lease(ctx context.Context, req *LeaseRequest) (*LeaseResponse, error) {
	resp := &LeaseResponse{}
	if err := c.call(ctx, "/v1/lease", req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Heartbeat renews a lease. ErrLeaseExpired means the coordinator no
// longer counts on this worker for the lease's points.
func (c *Client) Heartbeat(ctx context.Context, req *HeartbeatRequest) (*HeartbeatResponse, error) {
	resp := &HeartbeatResponse{}
	if err := c.call(ctx, "/v1/heartbeat", req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Complete submits finished points. Safe to repeat: completions are
// idempotent on the coordinator.
func (c *Client) Complete(ctx context.Context, req *CompleteRequest) (*CompleteResponse, error) {
	resp := &CompleteResponse{}
	if err := c.call(ctx, "/v1/complete", req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// call sends one request with the retry policy — a POST of in as JSON,
// or a GET when in is nil — and decodes the JSON response into out.
func (c *Client) call(ctx context.Context, path string, in, out any) error {
	method, body := http.MethodGet, []byte(nil)
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("svc: marshal %s request: %w", path, err)
		}
		method = http.MethodPost
	}
	return c.retry(ctx, path, func(actx context.Context) (bool, error) {
		req, err := http.NewRequestWithContext(actx, method, strings.TrimRight(c.BaseURL, "/")+path, bytes.NewReader(body))
		if err != nil {
			return false, err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return c.roundTrip(req, out)
	})
}

// roundTrip performs one attempt and classifies the outcome:
// (retryable, error). Transport failures are retryable; a decoded error
// envelope is retryable exactly when its wireErrors row says so.
func (c *Client) roundTrip(req *http.Request, out any) (bool, error) {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return true, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return true, err
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(respBody, out); err != nil {
			return true, fmt.Errorf("svc: undecodable %s response: %w", req.URL.Path, err)
		}
		return false, nil
	}
	var envelope errorResponse
	if err := json.Unmarshal(respBody, &envelope); err != nil || envelope.Error.Code == "" {
		return true, fmt.Errorf("svc: %s answered HTTP %d without an error envelope", req.URL.Path, resp.StatusCode)
	}
	row := wireForCode(envelope.Error.Code)
	return row.retryable, row.clientErr(envelope.Error.Message)
}

// retry drives attempt with jittered exponential backoff until it
// succeeds, returns a terminal error, or the budget runs out.
func (c *Client) retry(ctx context.Context, path string, attempt func(ctx context.Context) (bool, error)) error {
	base, max := c.backoffBounds()
	backoff := base
	var lastErr error
	attempts := c.maxAttempts()
	for i := 0; i < attempts; i++ {
		if i > 0 {
			delay := c.jitter(backoff)
			if c.Logf != nil {
				c.Logf("wlansvc: %s failed (%v), retry %d/%d in %s", path, lastErr, i, attempts-1, delay.Round(time.Millisecond))
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
			if backoff *= 2; backoff > max {
				backoff = max
			}
		}
		actx, cancel := context.WithTimeout(ctx, c.attemptTimeout())
		retryable, err := attempt(actx)
		cancel()
		if err == nil {
			return nil
		}
		if !retryable {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
	}
	return fmt.Errorf("%w: %s failed after %d attempts: %w", ErrCoordinatorUnavailable, path, attempts, lastErr)
}
