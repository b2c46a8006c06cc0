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
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweep"
)

// fakeClock is a hand-advanced clock for driving lease expiry without
// sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// testGrid is a small all-connected sweep over station counts: real
// simulations, tens of milliseconds each.
func testGrid(name string, nodes ...int) *sweep.Grid {
	return &sweep.Grid{
		Name: name,
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.TopoConnected},
			Duration: scenario.Duration(50e6),
		},
		Axes: []sweep.Axis{{Field: sweep.FieldNodes, Values: sweep.Ints(nodes...)}},
	}
}

// simulateLease runs a leased batch exactly like a worker would and
// returns the completion request.
func simulateLease(t *testing.T, r *scenario.Runner, l *LeaseResponse) *CompleteRequest {
	t.Helper()
	specs := make([]*scenario.Spec, len(l.Points))
	for i, lp := range l.Points {
		sp := &scenario.Spec{}
		if err := json.Unmarshal(lp.Spec, sp); err != nil {
			t.Fatalf("unmarshal leased spec %d: %v", lp.Index, err)
		}
		specs[i] = sp
	}
	sums, err := r.RunBatch(context.Background(), specs)
	if err != nil {
		t.Fatalf("simulate leased batch: %v", err)
	}
	req := &CompleteRequest{LeaseID: l.LeaseID, WorkerID: "test-worker", Points: make([]CompletedPoint, len(sums))}
	for i, sum := range sums {
		data, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		req.Points[i] = CompletedPoint{Index: l.Points[i].Index, Key: l.Points[i].Key, Summary: data}
	}
	return req
}

// drainCampaign leases and completes until the coordinator reports
// done, like a single dutiful worker.
func drainCampaign(t *testing.T, c *Coordinator, r *scenario.Runner) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		l, err := c.lease(&LeaseRequest{WorkerID: "test-worker"})
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if l.Done {
			return
		}
		if len(l.Points) == 0 {
			t.Fatal("lease granted no points on an unfinished campaign with no other workers")
		}
		if _, err := c.complete(simulateLease(t, r, l)); err != nil {
			t.Fatalf("complete: %v", err)
		}
	}
	t.Fatal("campaign did not finish in 1000 leases")
}

// TestCoordinatorMergeMatchesSingleMachine is the heart of the
// contract: a campaign driven entirely through the lease/complete wire
// shapes produces the same bytes as sweep.Runner on one machine.
func TestCoordinatorMergeMatchesSingleMachine(t *testing.T) {
	g := testGrid("svc-merge", 2, 3, 4, 5, 6)

	var ref bytes.Buffer
	if _, err := (&sweep.Runner{}).Stream(context.Background(), g, &ref); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	c, err := NewCoordinator(CoordinatorConfig{Grid: g, MaxBatch: 2, Out: &out, Now: newFakeClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	r := &scenario.Runner{}
	defer r.Close()
	drainCampaign(t, c, r)

	select {
	case <-c.Done():
	default:
		t.Fatal("campaign drained but Done() is not closed")
	}
	if !bytes.Equal(out.Bytes(), ref.Bytes()) {
		t.Errorf("merged rows differ from single-machine run:\ncoordinator:\n%s\nsingle-machine:\n%s", out.Bytes(), ref.Bytes())
	}
	st := c.Stats()
	if st.Completed != 5 || st.RowsEmitted != 5 || st.Duplicates != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestCoordinatorRowFootprint pins that the coordinator streams its
// rows: a 200-point campaign reaches Out byte for byte as a
// single-machine run, while the coordinator keeps room for about one
// row, not the campaign's output.
func TestCoordinatorRowFootprint(t *testing.T) {
	seeds := make([]int, 20)
	for i := range seeds {
		seeds[i] = i + 1
	}
	g := testGrid("svc-footprint", 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	g.Base.Duration = scenario.Duration(2e6)
	g.Axes = append(g.Axes, sweep.Axis{Field: sweep.FieldSeed, Values: sweep.Ints(seeds...)})
	ref := coldRows(t, g)

	var out bytes.Buffer
	c, err := NewCoordinator(CoordinatorConfig{Grid: g, Out: &out, Now: newFakeClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	r := &scenario.Runner{}
	defer r.Close()
	drainCampaign(t, c, r)

	if st := c.Stats(); st.Total != 200 || st.RowsEmitted != 200 {
		t.Fatalf("stats: %+v", st)
	}
	if !bytes.Equal(out.Bytes(), ref) {
		t.Errorf("Out differs from a single-machine run (%d vs %d bytes)", out.Len(), len(ref))
	}
	// Row buffer growth at most doubles past the longest row, which is
	// under 1 KB here; the campaign's output is about 180 KB.
	if held := c.row.Cap(); held > 4<<10 {
		t.Errorf("coordinator holds %d bytes of rows after %d bytes of output, want ≤ 4 KB", held, out.Len())
	}
}

// TestCoordinatorCompletionsAreIdempotent replays a completion batch —
// the lost-response retransmit — and checks it is absorbed, not
// double-counted.
func TestCoordinatorCompletionsAreIdempotent(t *testing.T) {
	g := testGrid("svc-idem", 2, 3)
	var out bytes.Buffer
	c, err := NewCoordinator(CoordinatorConfig{Grid: g, MaxBatch: 2, Out: &out, Now: newFakeClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	r := &scenario.Runner{}
	defer r.Close()
	l, err := c.lease(&LeaseRequest{WorkerID: "w"})
	if err != nil {
		t.Fatal(err)
	}
	req := simulateLease(t, r, l)
	first, err := c.complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Accepted != 2 || first.Duplicates != 0 || !first.Done {
		t.Fatalf("first completion: %+v", first)
	}
	rows := bytes.Clone(out.Bytes())
	again, err := c.complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Accepted != 0 || again.Duplicates != 2 {
		t.Fatalf("replayed completion: %+v", again)
	}
	if !bytes.Equal(rows, out.Bytes()) {
		t.Error("replayed completion changed the output stream")
	}
	if st := c.Stats(); st.Completed != 2 || st.Duplicates != 2 || st.RowsEmitted != 2 {
		t.Errorf("stats after replay: %+v", st)
	}
}

// TestHandlersConcurrentLeases drives the HTTP handlers from several
// goroutines at once, the way net/http serves a fleet: each worker holds
// its own lease and interleaves heartbeats with status reads. Run under
// -race it catches a handler that touches coordinator state without
// holding c.mu, on goroutines that net/http spawns.
func TestHandlersConcurrentLeases(t *testing.T) {
	const workers, rounds = 4, 20
	c, err := NewCoordinator(CoordinatorConfig{Grid: testGrid("svc-handlers", 2, 3, 4, 5), MaxBatch: 1, Now: newFakeClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			cl := fastClient(srv.URL)
			l, err := cl.Lease(ctx, &LeaseRequest{WorkerID: id})
			if err != nil {
				errs <- err
				return
			}
			if l.LeaseID == "" {
				errs <- fmt.Errorf("worker %s was granted no lease", id)
				return
			}
			for i := 0; i < rounds; i++ {
				if _, err := cl.Heartbeat(ctx, &HeartbeatRequest{LeaseID: l.LeaseID}); err != nil {
					errs <- err
					return
				}
				if _, err := cl.Status(ctx); err != nil {
					errs <- err
					return
				}
			}
		}(fmt.Sprintf("w%d", w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := c.Stats(); st.Total != workers {
		t.Errorf("stats: %+v", st)
	}
}

// TestMetricsScrapeDuringLeases scrapes /metrics and /v1/status while
// several clients lease and complete through the HTTP handlers. Run
// under -race it catches a scrape or a status read that touches the
// campaign record without holding c.mu. Every scrape is one view of the
// campaign: no counter may fall between scrapes or pass the campaign
// size, no row may be emitted before its point is satisfied, and no
// worker may be active without a lease; once the campaign is done
// /metrics and /v1/status must both equal Stats().
func TestMetricsScrapeDuringLeases(t *testing.T) {
	const workers = 3
	g := testGrid("svc-scrape", 2, 3, 4, 5, 6, 7, 8, 9)
	pts, err := sweep.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate every point up front, so the clients only move bytes.
	r := &scenario.Runner{}
	defer r.Close()
	sums := make([][]byte, len(pts))
	for i := range pts {
		sum, err := r.Run(context.Background(), &pts[i].Spec)
		if err != nil {
			t.Fatal(err)
		}
		if sums[i], err = json.Marshal(sum); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewCoordinator(CoordinatorConfig{Grid: g, MaxBatch: 2, Now: newFakeClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx := context.Background()
	errs := make(chan error, workers+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			cl := fastClient(srv.URL)
			for {
				l, err := cl.Lease(ctx, &LeaseRequest{WorkerID: id})
				if err != nil {
					errs <- err
					return
				}
				if l.Done {
					return
				}
				req := &CompleteRequest{LeaseID: l.LeaseID, WorkerID: id}
				for _, lp := range l.Points {
					req.Points = append(req.Points, CompletedPoint{Index: lp.Index, Key: lp.Key, Summary: sums[lp.Index]})
				}
				if _, err := cl.Complete(ctx, req); err != nil {
					errs <- err
					return
				}
			}
		}(fmt.Sprintf("w%d", w))
	}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		last := map[string]uint64{}
		for done := false; !done; {
			select {
			case <-c.Done():
				done = true
			default:
			}
			m, err := scrapeMetrics(srv.URL)
			if err != nil {
				errs <- err
				return
			}
			for name, v := range m {
				if strings.HasSuffix(name, "_total") && v < last[name] {
					errs <- fmt.Errorf("%s fell from %d to %d", name, last[name], v)
					return
				}
			}
			satisfied := m["wlansvc_points_completed_total"] + m["wlansvc_points_cached_total"]
			if satisfied > uint64(len(pts)) {
				errs <- fmt.Errorf("scrape counts more points than the campaign has: %v", m)
				return
			}
			if m["wlansvc_rows_emitted_total"] > satisfied || m["wlansvc_workers_active"] > m["wlansvc_leases_active"] {
				errs <- fmt.Errorf("scrape is not one view of the campaign: %v", m)
				return
			}
			last = m
			if _, err := fastClient(srv.URL).Status(ctx); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	<-scraped
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	want := c.Stats()
	st, err := fastClient(srv.URL).Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.CampaignStats != want || !st.Done || st.Pending != 0 || st.Leased != 0 {
		t.Errorf("final /v1/status %+v, want the campaign record %+v, done and idle", st, want)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(httpGet(t, srv.URL+"/v1/status"), &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"grid_name", "fingerprint", "total", "completed", "cached", "pending", "leased",
		"duplicates", "reissued", "rows_emitted", "draining", "done"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("/v1/status lacks key %q: %v", k, keys)
		}
	}
	m, err := scrapeMetrics(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]int{
		"wlansvc_leases_granted_total":        want.LeasesGranted,
		"wlansvc_leases_expired_total":        want.LeasesExpired,
		"wlansvc_points_reissued_total":       want.Reissued,
		"wlansvc_points_completed_total":      want.Completed,
		"wlansvc_points_cached_total":         want.Cached,
		"wlansvc_duplicate_completions_total": want.Duplicates,
		"wlansvc_rows_emitted_total":          want.RowsEmitted,
		"wlansvc_leases_active":               0,
		"wlansvc_workers_active":              0,
		"wlansvc_points_pending":              0,
	} {
		if m[name] != uint64(v) {
			t.Errorf("%s = %d after the campaign, want %d", name, m[name], v)
		}
	}
	if want.Completed != len(pts) || want.RowsEmitted != len(pts) {
		t.Errorf("final stats: %+v", want)
	}
}

// scrapeMetrics fetches the /metrics text and parses its samples.
func scrapeMetrics(url string) (map[string]uint64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	m := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		v, err := strconv.ParseUint(val, 10, 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("unparsable /metrics line %q", line)
		}
		m[name] = v
	}
	if len(m) != 10 {
		return nil, fmt.Errorf("/metrics has %d series, want 10:\n%s", len(m), body)
	}
	return m, nil
}

// TestCoordinatorExpiryReissuesAndAbsorbsLateCompletion kills a worker
// by silence: its lease lapses, the points reissue under a fresh lease,
// and when the "dead" worker's completion finally arrives it lands as
// a duplicate (or as the first copy, if it beats the reissued one) —
// either way each row is emitted exactly once.
func TestCoordinatorExpiryReissuesAndAbsorbsLateCompletion(t *testing.T) {
	clock := newFakeClock()
	g := testGrid("svc-reissue", 2, 3)
	c, err := NewCoordinator(CoordinatorConfig{Grid: g, MaxBatch: 1, LeaseTTL: 10 * time.Second, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	r := &scenario.Runner{}
	defer r.Close()

	stale, err := c.lease(&LeaseRequest{WorkerID: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	staleReq := simulateLease(t, r, stale) // simulated, never submitted in time

	clock.Advance(10*time.Second + time.Millisecond)
	if _, err := c.heartbeat(&HeartbeatRequest{LeaseID: stale.LeaseID}); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("heartbeat on lapsed lease: %v, want ErrLeaseExpired", err)
	}

	reissued, err := c.lease(&LeaseRequest{WorkerID: "healthy"})
	if err != nil {
		t.Fatal(err)
	}
	if len(reissued.Points) != 1 || reissued.Points[0].Index != stale.Points[0].Index {
		t.Fatalf("expected point %d reissued, got %+v", stale.Points[0].Index, reissued.Points)
	}
	if st := c.Stats(); st.LeasesExpired != 1 || st.Reissued != 1 {
		t.Fatalf("stats after expiry: %+v", st)
	}

	// The healthy worker wins; the dead worker's completion arrives late.
	if _, err := c.complete(simulateLease(t, r, reissued)); err != nil {
		t.Fatal(err)
	}
	late, err := c.complete(staleReq)
	if err != nil {
		t.Fatalf("late completion must be accepted idempotently, got %v", err)
	}
	if late.Accepted != 0 || late.Duplicates != 1 {
		t.Fatalf("late completion: %+v", late)
	}

	// Finish and verify single emission per row.
	drainCampaign(t, c, r)
	if st := c.Stats(); st.RowsEmitted != 2 || st.Completed != 2 {
		t.Errorf("final stats: %+v", st)
	}
}

// TestCoordinatorReissueBudgetFailsCampaign pins the circuit breaker: a
// point that expires out of every lease eventually fails the campaign
// instead of reissuing forever.
func TestCoordinatorReissueBudgetFailsCampaign(t *testing.T) {
	clock := newFakeClock()
	g := testGrid("svc-poison", 2)
	c, err := NewCoordinator(CoordinatorConfig{Grid: g, MaxBatch: 1, MaxReissues: 2, LeaseTTL: time.Second, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if i > 10 {
			t.Fatal("campaign never failed")
		}
		l, err := c.lease(&LeaseRequest{WorkerID: "crashy"})
		if err != nil {
			t.Fatal(err)
		}
		if l.Failed {
			break
		}
		clock.Advance(time.Second + time.Millisecond) // never heartbeat, never complete
	}
	if err := c.Err(); !errors.Is(err, ErrCampaignFailed) {
		t.Fatalf("Err() = %v, want ErrCampaignFailed", err)
	}
	select {
	case <-c.Done():
	default:
		t.Error("failed campaign must close Done()")
	}
}

// TestCoordinatorDrainRefusesLeasesAndPersistsState covers graceful
// shutdown: draining refuses new leases with the typed sentinel, honors
// in-flight completions, and leaves the queue it still owes in the
// campaign state /v1/status reports.
func TestCoordinatorDrainRefusesLeasesAndPersistsState(t *testing.T) {
	clock := newFakeClock()
	g := testGrid("svc-drain", 2, 3, 4)
	c, err := NewCoordinator(CoordinatorConfig{Grid: g, MaxBatch: 1, LeaseTTL: time.Second, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	r := &scenario.Runner{}
	defer r.Close()

	inflight, err := c.lease(&LeaseRequest{WorkerID: "w"})
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- c.Drain(context.Background()) }()

	// Wait for draining to take effect (status is read-only), then
	// check that new leases are refused while the in-flight one can
	// still complete.
	deadline := time.Now().Add(5 * time.Second)
	for st, _ := c.status(); !st.Draining; st, _ = c.status() {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.lease(&LeaseRequest{WorkerID: "late"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("lease during drain: %v, want ErrDraining", err)
	}
	if resp, err := c.complete(simulateLease(t, r, inflight)); err != nil || resp.Accepted != 1 {
		t.Fatalf("in-flight completion during drain: %+v, %v", resp, err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	st, _ := c.status()
	if !st.Draining || st.Pending != 2 || st.Leased != 0 || st.Completed != 1 || st.Done {
		t.Errorf("drained status: %+v, want draining with 2 pending, none leased, 1 completed", st)
	}
}

// TestCoordinatorResumesFromCacheWithoutResimulating restarts a
// campaign over a warm cache: every committed point must be satisfied
// before any lease is granted, and the merged bytes must match the
// first run's exactly.
func TestCoordinatorResumesFromCacheWithoutResimulating(t *testing.T) {
	dir := t.TempDir()
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid("svc-resume", 2, 3, 4)
	var out1, out2 bytes.Buffer
	c1, err := NewCoordinator(CoordinatorConfig{Grid: g, Cache: cache, MaxBatch: 2, Out: &out1, Now: newFakeClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	r := &scenario.Runner{}
	defer r.Close()
	drainCampaign(t, c1, r)

	cache2, err := sweep.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCoordinator(CoordinatorConfig{Grid: g, Cache: cache2, Out: &out2, Now: newFakeClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.Cached != 3 || st.Completed != 0 {
		t.Fatalf("resume stats: %+v (want everything cached, nothing simulated)", st)
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("fully cached campaign must be done at construction")
	}
	l, err := c2.lease(&LeaseRequest{WorkerID: "w"})
	if err != nil || !l.Done || len(l.Points) != 0 {
		t.Fatalf("lease on finished campaign: %+v, %v", l, err)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Error("resumed campaign's rows differ from the original run")
	}
}

// TestLeaseIDsFreshAcrossRestart restarts a coordinator over the same
// cache while a worker of the first run still holds a lease. That
// worker's late completion names a lease the restarted coordinator
// never granted: it must commit its point without ending the lease the
// restarted coordinator granted to another worker, whose heartbeat
// still renews and whose uncovered point stays leased.
func TestLeaseIDsFreshAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	g := testGrid("svc-restart", 2, 3, 4)
	start := func() *Coordinator {
		cache, err := sweep.OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCoordinator(CoordinatorConfig{Grid: g, Cache: cache, MaxBatch: 2, Now: newFakeClock().Now})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	r := &scenario.Runner{}
	defer r.Close()

	stale, err := start().lease(&LeaseRequest{WorkerID: "outlived", MaxPoints: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := start()
	held, err := c.lease(&LeaseRequest{WorkerID: "current"})
	if err != nil {
		t.Fatal(err)
	}
	if len(held.Points) != 2 {
		t.Fatalf("restarted coordinator granted %d point(s), want 2", len(held.Points))
	}
	if resp, err := c.complete(simulateLease(t, r, stale)); err != nil || resp.Accepted != 1 {
		t.Fatalf("late completion from before the restart: %+v, %v", resp, err)
	}
	if _, err := c.heartbeat(&HeartbeatRequest{LeaseID: held.LeaseID}); err != nil {
		t.Fatalf("heartbeat of the live lease after a stale completion: %v", err)
	}
	if st, _ := c.status(); st.Leased != 1 || st.Pending != 1 || st.Completed != 1 {
		t.Errorf("status after the stale completion: %+v, want 1 leased, 1 pending, 1 completed", st)
	}
}
