// Package svc is the fault-tolerant scale-out layer over the sweep
// engine: a coordinator daemon that owns a campaign (one sweep grid),
// leases batches of points to workers over a small HTTP JSON control
// plane, and streams the merged rows in canonical order — byte-identical
// to a single-machine run — with the content-addressed cache as the only
// durable truth.
//
// The correctness contract is deliberately asymmetric: workers are
// assumed to crash, stall, retransmit and disappear, and none of that
// may change a single output byte. Three mechanisms carry the contract:
//
//   - Leases with TTLs. A worker renews its lease by heartbeat; a lease
//     not renewed within the TTL expires and its unfinished points go
//     back to the queue for reissue. A dead worker therefore delays a
//     campaign by at most one TTL per batch, never wedges it.
//
//   - Idempotent completions keyed on cache keys. Lease reissue means
//     the same point can legitimately complete twice (the original
//     worker was slow, not dead — or its completion response was lost
//     and it retransmitted). The first completion wins; every later one
//     is acknowledged and dropped. Because the key is the content
//     address of the point's spec, "the same point" is decided by
//     physics, not by lease bookkeeping.
//
//   - The cache as the only durable truth. Every accepted completion is
//     written to the content-addressed cache before it is recorded as
//     done, and on startup the coordinator satisfies every point it can
//     from the cache before leasing anything. Killing the coordinator
//     and restarting it with the same manifest and cache directory is
//     therefore a complete recovery story: committed points are never
//     re-simulated, uncommitted ones are simply leased again.
//
// The coordinator keeps every campaign counter in one record,
// CampaignStats: Stats returns it, and /v1/status and /metrics render
// it from one snapshot taken under the coordinator's lock. A worker
// keeps no state beyond its lease; cancelling its context is how it is
// stopped, in production and in the chaos tests alike.
//
// Wall clocks, timers and network I/O are all legitimate here — the
// package sits outside the simulator's determinism boundary (see
// analysis.SimExempt) because nothing in it touches physics: it moves
// opaque, already-deterministic results around.
package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// CoordinatorConfig configures a campaign coordinator.
type CoordinatorConfig struct {
	// Grid is the campaign manifest. Required.
	Grid *sweep.Grid
	// Cache, when non-nil, is the content-addressed result store: it is
	// consulted for every point at startup (resume) and written before
	// any completion is acknowledged. Strongly recommended — without it
	// a coordinator crash loses all progress.
	Cache *sweep.Cache
	// LeaseTTL is how long a lease survives without a heartbeat
	// (default 15s).
	LeaseTTL time.Duration
	// MaxBatch caps points per lease (default 8).
	MaxBatch int
	// MaxReissues bounds how often one point may be reclaimed from
	// expired leases before the coordinator declares the campaign
	// failed — the circuit breaker for inputs that kill every worker
	// that touches them (default 50).
	MaxReissues int
	// Out, when non-nil, receives the canonical JSONL rows as their
	// contiguous prefix completes, one Write per row. The coordinator
	// keeps no copy: a row Out refuses is retried whole at the next
	// advance, and without Out the rows are discarded.
	Out io.Writer
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Now overrides the clock in tests (default time.Now).
	Now func() time.Time
}

// Coordinator owns one campaign: the lease table around a
// sweep.Ledger, which holds the expanded points, commits completions
// and emits the canonical output stream.
type Coordinator struct {
	cfg         CoordinatorConfig
	fingerprint string

	mu       sync.Mutex
	ledger   *sweep.Ledger
	leasedBy []string // active lease ID per point ("" = not leased)
	reissues []int    // lease reissue count per point
	pending  []int    // queued point indexes, ascending
	leases   *leaseTable
	row      bytes.Buffer // the row being emitted, reused per row
	stats    CampaignStats
	draining bool
	failure  error
	doneCh   chan struct{}
	doneOnce sync.Once
}

// CampaignStats is the campaign's one record of progress counters:
// Stats returns it, and /v1/status and /metrics render it.
type CampaignStats struct {
	// Total is the expanded grid size.
	Total int `json:"total"`
	// Completed counts points satisfied by worker completions — the
	// campaign's "simulated" figure.
	Completed int `json:"completed"`
	// Cached counts points satisfied from the cache at startup.
	Cached int `json:"cached"`
	// Quarantined counts corrupt cache entries moved aside at startup.
	Quarantined int `json:"quarantined,omitempty"`
	// Duplicates counts completions acknowledged but already recorded.
	Duplicates int `json:"duplicates"`
	// LeasesGranted and LeasesExpired count lease-table transitions.
	LeasesGranted int `json:"leases_granted"`
	LeasesExpired int `json:"leases_expired"`
	// Reissued counts points reclaimed from expired leases.
	Reissued int `json:"reissued"`
	// RowsEmitted counts canonical rows released in order.
	RowsEmitted int `json:"rows_emitted"`
}

// Satisfied is how many points are done, however they got there.
func (st CampaignStats) Satisfied() int { return st.Completed + st.Cached }

// String renders the one-line campaign report. The "N simulated"
// phrasing matches the sweep CLI's — CI greps it to prove cache hits.
func (st CampaignStats) String() string {
	s := fmt.Sprintf("%d/%d points (%d simulated, %d cached)",
		st.Satisfied(), st.Total, st.Completed, st.Cached)
	if st.Quarantined > 0 {
		s += fmt.Sprintf(", %d quarantined", st.Quarantined)
	}
	if st.Reissued > 0 {
		s += fmt.Sprintf(", %d reissued", st.Reissued)
	}
	return s
}

// SweepStats maps the campaign onto the sweep layer's Stats shape (for
// the meta sidecar: Simulated = worker completions).
func (st CampaignStats) SweepStats() sweep.Stats {
	return sweep.Stats{
		Total:       st.Total,
		Owned:       st.Total,
		Simulated:   st.Completed,
		Cached:      st.Cached,
		Quarantined: st.Quarantined,
	}
}

// NewCoordinator expands the manifest, replays the cache, and returns a
// coordinator ready to serve. Points already in the cache are recorded
// as done — and their contiguous prefix emitted — before any lease can
// be granted, which is the "zero re-simulation of committed points"
// half of the fault model.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Grid == nil {
		return nil, fmt.Errorf("svc: coordinator needs a grid manifest")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.MaxReissues <= 0 {
		cfg.MaxReissues = 50
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	pts, err := sweep.Expand(cfg.Grid)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:         cfg,
		fingerprint: sweep.GridFingerprint(cfg.Grid),
		ledger:      sweep.NewLedger(pts, cfg.Cache),
		leasedBy:    make([]string, len(pts)),
		reissues:    make([]int, len(pts)),
		leases:      newLeaseTable(cfg.LeaseTTL),
		doneCh:      make(chan struct{}),
	}
	c.stats.Total = len(pts)

	// Cache replay: the resume path. Every hit is a point no worker
	// will ever see; every miss, quarantined entries included, queues.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending, err = c.ledger.Replay(c.emitLocked); err != nil {
		return nil, err
	}
	c.stats.Cached, c.stats.Quarantined = c.ledger.Cached(), c.ledger.Quarantined()
	c.checkDoneLocked()
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// emitLocked is the ledger's emit: one row encoded into the reused
// row buffer and written to Out. A row Out refuses is not counted, and
// the ledger retries it at the next advance.
func (c *Coordinator) emitLocked(pr *sweep.PointResult) error {
	c.row.Reset()
	err := sweep.WriteRow(&c.row, pr)
	if err == nil && c.cfg.Out != nil {
		_, err = c.cfg.Out.Write(c.row.Bytes())
	}
	if err != nil {
		return err
	}
	c.stats.RowsEmitted++
	return nil
}

// checkDoneLocked closes the done channel once every point is
// satisfied (or the campaign has failed).
func (c *Coordinator) checkDoneLocked() {
	if c.failure != nil || c.stats.Satisfied() == c.stats.Total {
		c.doneOnce.Do(func() { close(c.doneCh) })
	}
}

// Done is closed when the campaign completes or fails; inspect Err.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Err reports why the campaign stopped: nil while running or after a
// clean finish, ErrCampaignFailed (wrapped) after the reissue circuit
// breaker tripped.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failure
}

// Stats returns a progress snapshot.
func (c *Coordinator) Stats() CampaignStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// requeueLocked returns a point to the pending queue in ascending
// order, so lease grants keep feeding the emit cursor's prefix first.
func (c *Coordinator) requeueLocked(idx int) {
	at := sort.SearchInts(c.pending, idx)
	c.pending = append(c.pending, 0)
	copy(c.pending[at+1:], c.pending[at:])
	c.pending[at] = idx
}

// expireLocked transitions lapsed leases and reclaims their unfinished
// points. One point exceeding the reissue budget fails the campaign.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, l := range c.leases.expire(now) {
		c.stats.LeasesExpired++
		reclaimed := 0
		for _, idx := range l.points {
			if c.ledger.Done(idx) || c.leasedBy[idx] != l.id {
				continue
			}
			c.leasedBy[idx] = ""
			c.requeueLocked(idx)
			c.reissues[idx]++
			c.stats.Reissued++
			reclaimed++
			if c.reissues[idx] > c.cfg.MaxReissues && c.failure == nil {
				c.failure = fmt.Errorf("%w: point %d (%s) reissued %d times without completing",
					ErrCampaignFailed, idx, c.ledger.Points()[idx].Name, c.reissues[idx])
				c.logf("wlansvc: %v", c.failure)
				c.checkDoneLocked()
			}
		}
		c.logf("wlansvc: lease %s (worker %s) expired, %d point(s) requeued", l.id, l.worker, reclaimed)
	}
}

// Run drives lease expiry until the campaign completes, fails, or ctx
// is cancelled. The HTTP handlers also expire lazily on every request,
// so Run is about liveness when no worker is talking — a fully
// partitioned fleet still expires, reissues and (eventually) trips the
// circuit breaker.
func (c *Coordinator) Run(ctx context.Context) error {
	tick := c.cfg.LeaseTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.doneCh:
			return c.Err()
		case now := <-t.C:
			c.mu.Lock()
			c.expireLocked(now)
			c.mu.Unlock()
		}
	}
}

// Drain performs a graceful shutdown: refuse new leases, and keep
// serving heartbeats and completions until every in-flight lease
// completes or expires (bounded by ctx). The campaign can resume later
// from the cache alone.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.logf("wlansvc: draining: refusing new leases")
	for {
		c.mu.Lock()
		c.expireLocked(c.cfg.Now())
		active := c.leases.activeCount()
		c.mu.Unlock()
		if active == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// lease grants a batch of pending points.
func (c *Coordinator) lease(req *LeaseRequest) (*LeaseResponse, error) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	if c.failure != nil {
		return &LeaseResponse{Failed: true}, nil
	}
	if c.stats.Satisfied() == c.stats.Total {
		return &LeaseResponse{Done: true}, nil
	}
	if c.draining {
		return nil, fmt.Errorf("%w: no new leases", ErrDraining)
	}
	n := req.MaxPoints
	if n <= 0 || n > c.cfg.MaxBatch {
		n = c.cfg.MaxBatch
	}
	if n > len(c.pending) {
		n = len(c.pending)
	}
	if n == 0 {
		// Everything unfinished is leased out; the worker polls again.
		return &LeaseResponse{}, nil
	}
	// A spec is marshalled when its point is leased, so the points a
	// cache replay serves are never marshalled at all.
	batch := append([]int(nil), c.pending[:n]...)
	points := make([]LeasePoint, 0, len(batch))
	for _, idx := range batch {
		pt := c.ledger.Points()[idx]
		spec, err := json.Marshal(&pt.Spec)
		if err != nil {
			return nil, fmt.Errorf("svc: marshal point %d spec: %w", idx, err)
		}
		points = append(points, LeasePoint{Index: idx, Name: pt.Name, Key: pt.Key, Spec: spec})
	}
	c.pending = c.pending[n:]
	l := c.leases.grant(req.WorkerID, batch, now)
	c.stats.LeasesGranted++
	for _, idx := range batch {
		c.leasedBy[idx] = l.id
	}
	resp := &LeaseResponse{LeaseID: l.id, TTLMS: c.cfg.LeaseTTL.Milliseconds(), Points: points}
	c.logf("wlansvc: lease %s granted to worker %s (%d points)", l.id, req.WorkerID, len(batch))
	return resp, nil
}

// heartbeat renews a lease.
func (c *Coordinator) heartbeat(req *HeartbeatRequest) (*HeartbeatResponse, error) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	if err := c.leases.heartbeat(req.LeaseID, now); err != nil {
		return nil, err
	}
	return &HeartbeatResponse{TTLMS: c.cfg.LeaseTTL.Milliseconds()}, nil
}

// complete records a batch of finished points idempotently. The batch
// is validated whole first, so a bad request leaves no trace: each entry
// must address its point by key and carry a summary of the point's
// scheme and replication count. New points are committed through the
// ledger; a duplicate (late or retransmitted) is acknowledged only.
func (c *Coordinator) complete(req *CompleteRequest) (*CompleteResponse, error) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	pts := c.ledger.Points()
	sums := make([]*scenario.Summary, len(req.Points))
	for k, cp := range req.Points {
		if cp.Index < 0 || cp.Index >= len(pts) {
			return nil, fmt.Errorf("%w: completion for point %d outside the %d-point campaign", errBadRequest, cp.Index, len(pts))
		}
		pt := pts[cp.Index]
		if cp.Key != pt.Key {
			return nil, fmt.Errorf("%w: completion key %.12s does not address point %d (%.12s): stale manifest or corrupted result", errBadRequest, cp.Key, cp.Index, pt.Key)
		}
		if c.ledger.Done(cp.Index) {
			continue
		}
		sum := &scenario.Summary{}
		if err := json.Unmarshal(cp.Summary, sum); err != nil {
			return nil, fmt.Errorf("%w: point %d summary: %v", errBadRequest, cp.Index, err)
		}
		if sum.Scheme != pt.Spec.Scheme || sum.Replications != pt.Spec.Seeds {
			return nil, fmt.Errorf("%w: point %d summary reports %d %q replication(s), want %d %q",
				errBadRequest, cp.Index, sum.Replications, sum.Scheme, pt.Spec.Seeds, pt.Spec.Scheme)
		}
		sums[k] = sum
	}
	resp := &CompleteResponse{}
	for k, cp := range req.Points {
		if c.ledger.Done(cp.Index) {
			resp.Duplicates++
			c.stats.Duplicates++
			continue
		}
		if err := c.ledger.Commit(cp.Index, sums[k]); err != nil {
			// Durability first: if the truth store refuses the result,
			// the point is NOT done. The worker's retry (or a reissue)
			// will try again.
			return nil, err
		}
		if c.leasedBy[cp.Index] != "" {
			c.leasedBy[cp.Index] = ""
		} else {
			// The point was not under an active lease: this completion
			// raced a reissue out of the pending queue. Pull it back so
			// it cannot be leased again.
			if at := sort.SearchInts(c.pending, cp.Index); at < len(c.pending) && c.pending[at] == cp.Index {
				c.pending = append(c.pending[:at], c.pending[at+1:]...)
			}
		}
		c.stats.Completed++
		resp.Accepted++
	}
	// End the lease; any of its points the request did not cover
	// go back to the queue rather than dangling until TTL expiry.
	if l := c.leases.complete(req.LeaseID); l != nil {
		for _, idx := range l.points {
			if !c.ledger.Done(idx) && c.leasedBy[idx] == l.id {
				c.leasedBy[idx] = ""
				c.requeueLocked(idx)
			}
		}
	}
	if err := c.ledger.Advance(c.emitLocked); err != nil {
		return nil, err
	}
	c.logf("wlansvc: lease %s (worker %s): %d completion(s) accepted, %d duplicate(s)",
		req.LeaseID, req.WorkerID, resp.Accepted, resp.Duplicates)
	c.checkDoneLocked()
	resp.Done = c.stats.Satisfied() == c.stats.Total
	return resp, nil
}

// status snapshots the campaign under one lock: the /v1/status body,
// and the count of distinct workers holding a live lease, which
// /metrics adds to it.
func (c *Coordinator) status() (*StatusResponse, int) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	return &StatusResponse{
		GridName:      c.cfg.Grid.Name,
		Fingerprint:   c.fingerprint,
		CampaignStats: c.stats,
		Pending:       len(c.pending),
		Leased:        c.leases.activeCount(),
		Draining:      c.draining,
		Done:          c.stats.Satisfied() == c.stats.Total,
		Failed:        c.failure != nil,
	}, c.leases.activeWorkers()
}

// writeMetrics renders one status snapshot as the Prometheus text
// exposition, so every series of a scrape comes from the same view.
// The gauges go through GaugeFunc, which formats them as floats, as
// the exposition always has.
func writeMetrics(w http.ResponseWriter, r *http.Request, st *StatusResponse, workers int) {
	reg := metrics.NewRegistry()
	gauge := func(name, help string, v int) {
		reg.GaugeFunc(name, help, func() float64 { return float64(v) })
	}
	counter := func(name, help string, v int) {
		reg.CounterFunc(name, help, func() uint64 { return uint64(v) })
	}
	gauge("wlansvc_leases_active", "Point leases currently held by workers.", st.Leased)
	gauge("wlansvc_workers_active", "Distinct workers holding at least one active lease.", workers)
	gauge("wlansvc_points_pending", "Campaign points queued, not yet leased or satisfied.", st.Pending)
	counter("wlansvc_leases_granted_total", "Point leases granted to workers.", st.LeasesGranted)
	counter("wlansvc_leases_expired_total", "Leases that expired before their worker completed them.", st.LeasesExpired)
	counter("wlansvc_points_reissued_total", "Points reclaimed from expired leases and requeued.", st.Reissued)
	counter("wlansvc_points_completed_total", "Points newly satisfied by worker completions.", st.Completed)
	counter("wlansvc_points_cached_total", "Points satisfied from the content-addressed cache at startup.", st.Cached)
	counter("wlansvc_duplicate_completions_total", "Late or repeated point completions absorbed idempotently.", st.Duplicates)
	counter("wlansvc_rows_emitted_total", "Canonical result rows released to the output stream.", st.RowsEmitted)
	reg.Handler().ServeHTTP(w, r)
}

// Handler returns the coordinator's HTTP surface: the /v1 control
// plane and GET /metrics.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeInto(w, r, &req) {
			return
		}
		resp, err := c.lease(&req)
		writeResult(w, resp, err)
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeInto(w, r, &req) {
			return
		}
		resp, err := c.heartbeat(&req)
		writeResult(w, resp, err)
	})
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeInto(w, r, &req) {
			return
		}
		resp, err := c.complete(&req)
		writeResult(w, resp, err)
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		st, _ := c.status()
		writeResult(w, st, nil)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		st, workers := c.status()
		writeMetrics(w, r, st, workers)
	})
	return mux
}

// maxBodyBytes bounds control-plane request bodies: the largest
// legitimate payload is a completion batch of summaries, far under it.
const maxBodyBytes = 32 << 20

// decodeInto reads one JSON request body; a false return means the
// error response is already written.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		writeError(w, fmt.Errorf("%w: body: %v", errBadRequest, err))
		return false
	}
	return true
}

func writeResult(w http.ResponseWriter, v any, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	row := wireForErr(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(row.status)
	json.NewEncoder(w).Encode(&errorResponse{Error: apiError{Code: row.code, Message: err.Error()}})
}
