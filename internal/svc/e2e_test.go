package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/svc/chaos"
	"repro/internal/sweep"
)

// onFirstGrant runs fn synchronously the first time a /v1/lease
// response actually grants points — before the response reaches the
// worker. Applying the fault inside the round trip (rather than from a
// watching goroutine) makes the schedule exact: the coordinator has
// granted the lease, the worker has not yet seen it, and whatever fn
// breaks is broken before a single leased point can complete. ch closes
// at the same instant so the test can sequence later phases.
type onFirstGrant struct {
	base http.RoundTripper
	fn   func()
	once sync.Once
	ch   chan struct{}
}

func (t *onFirstGrant) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil && req.URL.Path == "/v1/lease" {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		if bytes.Contains(body, []byte(`"lease_id"`)) {
			t.once.Do(func() {
				t.fn()
				close(t.ch)
			})
		}
	}
	return resp, err
}

// dropFirstComplete discards exactly one fully processed /v1/complete
// response: the coordinator has recorded the points, the worker sees a
// transport error and retransmits — the scripted trigger for the
// idempotency path. ch closes when the next /v1/complete is answered.
// The worker completes one lease at a time, so that answer is the
// retransmission's, and the coordinator has by then counted it as a
// duplicate; the test holds back every competing worker until ch
// closes, so the scenario fires on every run.
type dropFirstComplete struct {
	base    http.RoundTripper
	dropped atomic.Bool
	once    sync.Once
	ch      chan struct{}
}

func (d *dropFirstComplete) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := d.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/complete" {
		return resp, err
	}
	if d.dropped.CompareAndSwap(false, true) {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("e2e: scripted drop of processed completion")
	}
	d.once.Do(func() { close(d.ch) })
	return resp, nil
}

// TestChaosCampaignMergesByteIdentical is the end-to-end fault drill:
// four workers attack a 24-point campaign over real HTTP — one steady,
// one with a seeded fallible transport plus a scripted lost-completion,
// one crash-killed while holding a lease, one network-partitioned while
// holding a lease — and the merged output must be byte-identical to a
// single-machine run, with zero re-simulation of cache-committed
// points.
func TestChaosCampaignMergesByteIdentical(t *testing.T) {
	g := &sweep.Grid{
		Name: "svc-chaos-e2e",
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.TopoConnected},
			Duration: scenario.Duration(50e6),
		},
		Axes: []sweep.Axis{
			{Field: sweep.FieldNodes, Values: sweep.Ints(2, 3, 4, 5)},
			{Field: sweep.FieldSeed, Values: sweep.Ints(1, 2, 3, 4, 5, 6)},
		},
	}

	// Single-machine reference bytes.
	var ref bytes.Buffer
	if _, err := (&sweep.Runner{}).Stream(context.Background(), g, &ref); err != nil {
		t.Fatal(err)
	}

	// Pre-warm a scattered subset of the cache: these points are
	// committed, and the fault model says no failure schedule may ever
	// cause them to be simulated again.
	pts, err := sweep.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	warm := []int{0, 7, 13, 20}
	warmRunner := &scenario.Runner{}
	for _, idx := range warm {
		sum, err := warmRunner.Run(context.Background(), &pts[idx].Spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.Put(pts[idx].Key, &pts[idx].Spec, sum); err != nil {
			t.Fatal(err)
		}
	}
	warmRunner.Close()

	var out bytes.Buffer // written under the coordinator's lock; read after Done
	c, err := NewCoordinator(CoordinatorConfig{
		Grid:     g,
		Cache:    cache,
		Out:      &out,
		LeaseTTL: 600 * time.Millisecond,
		MaxBatch: 6,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Record every point a /v1/lease response grants, at the HTTP
	// boundary, for the "committed points are never leased" oracle.
	var leasedMu sync.Mutex
	leased := map[int]string{} // point index -> a lease ID that granted it
	h := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/lease" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var l LeaseResponse
		if json.Unmarshal(rec.Body.Bytes(), &l) == nil {
			leasedMu.Lock()
			for _, lp := range l.Points {
				leased[lp.Index] = l.LeaseID
			}
			leasedMu.Unlock()
		}
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go c.Run(ctx)

	newClient := func(rt http.RoundTripper) *Client {
		return &Client{
			BaseURL:        srv.URL,
			HTTPClient:     &http.Client{Transport: rt},
			MaxAttempts:    8,
			BaseBackoff:    5 * time.Millisecond,
			MaxBackoff:     50 * time.Millisecond,
			AttemptTimeout: 5 * time.Second,
			Logf:           t.Logf,
		}
	}
	newWorker := func(id string, cl *Client, batch, par int) *Worker {
		r := &scenario.Runner{Parallelism: par}
		t.Cleanup(r.Close)
		w, err := NewWorker(WorkerConfig{
			Client: cl, ID: id, Runner: r, MaxBatch: batch,
			PollInterval: 20 * time.Millisecond, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	run := func(ctx context.Context, w *Worker) chan error {
		ch := make(chan error, 1)
		go func() { ch <- w.Run(ctx) }()
		return ch
	}

	// Phase 1: the doomed and the islanded worker each take a lease
	// while nothing competes; each fault is applied inside the round
	// trip of the granting lease response, so both workers
	// deterministically die holding unfinished work. The doomed
	// worker's context is cancelled there: a cancelled worker sends
	// nothing more, neither heartbeat nor completion, which is what a
	// crashed process looks like from the coordinator's side.
	doomedCtx, killDoomed := context.WithCancel(ctx)
	defer killDoomed()
	doomedSig := &onFirstGrant{base: http.DefaultTransport, ch: make(chan struct{}), fn: func() {
		t.Logf("e2e: killing doomed worker (lease granted, not yet seen)")
		killDoomed()
	}}
	doomedCh := run(doomedCtx, newWorker("doomed", newClient(doomedSig), 6, 1))

	islandChaos := chaos.NewTransport(7, http.DefaultTransport)
	islandSig := &onFirstGrant{base: islandChaos, ch: make(chan struct{}), fn: func() {
		t.Logf("e2e: partitioning islanded worker (lease granted, not yet seen)")
		islandChaos.Partition(true) // network split, never healed
	}}
	islandCl := newClient(islandSig)
	islandCl.MaxAttempts = 3 // fail fast once partitioned
	islandCh := run(ctx, newWorker("islanded", islandCl, 4, 1))

	waitSignal := func(ch chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(20 * time.Second):
			t.Fatalf("%s never happened", what)
		}
	}
	waitSignal(doomedSig.ch, "a lease grant to the doomed worker")
	waitSignal(islandSig.ch, "a lease grant to the islanded worker")

	// Phase 2: a fault-injected worker and a steady worker finish the
	// campaign, reclaiming the dead workers' points after TTL expiry.
	// The steady worker joins only once the flaky one's retransmitted
	// completion has been answered; otherwise it can finish the
	// campaign before the scripted drop fires.
	flakyChaos := chaos.NewTransport(42, http.DefaultTransport)
	flakyChaos.DropRequestProb = 0.1
	flakyChaos.DropResponseProb = 0.1
	flakyDrop := &dropFirstComplete{base: flakyChaos, ch: make(chan struct{})}
	flakyCh := run(ctx, newWorker("flaky", newClient(flakyDrop), 3, 2))
	waitSignal(flakyDrop.ch, "the flaky worker's retransmitted completion")

	steadyCh := run(ctx, newWorker("steady", newClient(http.DefaultTransport), 3, 2))

	select {
	case <-c.Done():
	case <-ctx.Done():
		t.Fatalf("campaign did not finish: %+v", c.Stats())
	}
	if err := c.Err(); err != nil {
		t.Fatalf("campaign failed: %v", err)
	}

	// Every worker exits the way its failure mode predicts.
	if err := <-steadyCh; err != nil {
		t.Errorf("steady worker: %v", err)
	}
	if err := <-flakyCh; err != nil {
		t.Errorf("flaky worker: %v", err)
	}
	if err := <-doomedCh; !errors.Is(err, context.Canceled) {
		t.Errorf("doomed worker returned %v, want context.Canceled", err)
	}
	if err := <-islandCh; err == nil {
		t.Error("islanded worker finished cleanly despite the partition")
	} else if !errors.Is(err, ErrCoordinatorUnavailable) && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("islanded worker returned %v, want ErrCoordinatorUnavailable", err)
	}

	// The tentpole claim: bytes identical to the single-machine run.
	if !bytes.Equal(out.Bytes(), ref.Bytes()) {
		t.Errorf("chaos campaign rows differ from single-machine run (%d vs %d bytes)", out.Len(), ref.Len())
	}

	st := c.Stats()
	if st.Cached != len(warm) {
		t.Errorf("Cached = %d, want %d", st.Cached, len(warm))
	}
	if st.Completed != len(pts)-len(warm) {
		t.Errorf("Completed = %d, want %d (every uncommitted point exactly once)", st.Completed, len(pts)-len(warm))
	}
	if st.RowsEmitted != len(pts) {
		t.Errorf("RowsEmitted = %d, want %d", st.RowsEmitted, len(pts))
	}
	// Zero re-simulation of committed points: they were never leased.
	leasedMu.Lock()
	for _, idx := range warm {
		if id, ok := leased[idx]; ok {
			t.Errorf("cache-committed point %d was leased to a worker in %s", idx, id)
		}
	}
	if len(leased) != len(pts)-len(warm) {
		t.Errorf("%d distinct points leased, want the %d uncommitted ones", len(leased), len(pts)-len(warm))
	}
	leasedMu.Unlock()
	// The failure schedule really fired: both dead workers' leases
	// expired and their points were reissued; the scripted lost
	// completion forced at least one idempotent duplicate.
	if st.LeasesExpired < 2 {
		t.Errorf("LeasesExpired = %d, want >= 2 (killed + partitioned)", st.LeasesExpired)
	}
	if st.Reissued < 2 {
		t.Errorf("Reissued = %d, want >= 2", st.Reissued)
	}
	if st.Duplicates < 1 {
		t.Errorf("Duplicates = %d, want >= 1 (scripted lost completion)", st.Duplicates)
	}
	if flakyChaos.DroppedRequests()+flakyChaos.DroppedResponses() == 0 {
		t.Error("seeded chaos transport injected no faults over the whole campaign")
	}
}
