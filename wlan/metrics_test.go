package wlan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// scrape fetches the handler's exposition text and parses the sample
// lines into name → value.
func scrape(t *testing.T, m *Metrics) (map[string]float64, string) {
	t.Helper()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q, not Prometheus text exposition", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, raw, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("sample %q has non-numeric value: %v", line, err)
		}
		vals[name] = v
	}
	return vals, string(body)
}

// TestMetricsEndpointMatchesSweepStats runs a mixed cached+simulated
// sweep on a metrics-enabled Lab and requires the endpoint's final
// counter totals to equal the returned SweepStats exactly — the
// acceptance contract for the live metrics endpoint.
func TestMetricsEndpointMatchesSweepStats(t *testing.T) {
	ctx := context.Background()
	cacheDir := t.TempDir()
	g := testGrid()

	// Warm the cache for shard 0/2 only, on a metrics-free Lab, so the
	// instrumented run below sees a genuine cached+simulated mix.
	warm := NewLab()
	defer warm.Close()
	var warmStats SweepStats
	if _, err := warm.SweepStream(ctx, g, io.Discard,
		WithSweepCache(cacheDir), WithShard(0, 2), WithSweepStats(&warmStats)); err != nil {
		t.Fatal(err)
	}
	if warmStats.Simulated == 0 || warmStats.Owned == warmStats.Total {
		t.Fatalf("warm shard did not set up a partial cache: %+v", warmStats)
	}

	m := NewMetrics()
	lab := NewLab(WithMetrics(m))
	defer lab.Close()
	var st SweepStats
	var rows bytes.Buffer
	if _, err := lab.SweepStream(ctx, g, &rows, WithSweepCache(cacheDir), WithSweepStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.Cached == 0 || st.Simulated == 0 {
		t.Fatalf("run was not a cached+simulated mix: %+v", st)
	}

	vals, body := scrape(t, m)
	for name, want := range map[string]int{
		"wlansim_sweep_points_owned_total":     st.Owned,
		"wlansim_sweep_points_simulated_total": st.Simulated,
		"wlansim_sweep_points_cached_total":    st.Cached,
		"wlansim_sweep_points_failed_total":    0,
		"wlansim_sweep_rows_emitted_total":     st.Owned,
	} {
		got, ok := vals[name]
		if !ok {
			t.Errorf("endpoint missing %s:\n%s", name, body)
			continue
		}
		if got != float64(want) {
			t.Errorf("%s = %v, want %d (stats %+v)", name, got, want, st)
		}
	}
	wantRate := float64(st.Cached) / float64(st.Cached+st.Simulated)
	if got := vals["wlansim_sweep_cache_hit_rate"]; got != wantRate {
		t.Errorf("cache hit rate = %v, want %v", got, wantRate)
	}
	// The replication counters must account for every simulated point's
	// replications and be quiescent after the run.
	if got := vals["wlansim_replications_in_flight"]; got != 0 {
		t.Errorf("in-flight gauge = %v after run finished", got)
	}
	if got := vals["wlansim_replications_total"]; got == 0 {
		t.Error("no replications counted")
	}
	if got := vals["wlansim_sim_events_total"]; got == 0 {
		t.Error("no kernel events counted")
	}

	snap := m.Snapshot()
	if snap.PointsSimulated != uint64(st.Simulated) || snap.PointsCached != uint64(st.Cached) {
		t.Errorf("Snapshot diverged from stats: %+v vs %+v", snap, st)
	}
	if snap.CacheHitRate != wantRate {
		t.Errorf("Snapshot.CacheHitRate = %v, want %v", snap.CacheHitRate, wantRate)
	}
}

// TestMetricsDoNotChangeOutput pins the observer contract: a
// metrics-enabled sweep's JSONL stream is byte-identical to a
// metrics-off run of the same grid.
func TestMetricsDoNotChangeOutput(t *testing.T) {
	ctx := context.Background()
	g := testGrid()

	plain := NewLab()
	defer plain.Close()
	var want bytes.Buffer
	if _, err := plain.SweepStream(ctx, g, &want); err != nil {
		t.Fatal(err)
	}

	metered := NewLab(WithMetrics(NewMetrics()))
	defer metered.Close()
	var got bytes.Buffer
	if _, err := metered.SweepStream(ctx, g, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("metrics-enabled sweep output diverged from metrics-off run:\n%s\nvs\n%s",
			got.String(), want.String())
	}
}

// failWriter fails every write, aborting a streamed sweep at its first
// flush.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("emit pipe broke") }

// A failed sweep must still balance the books: owned = simulated +
// cached + failed, so dashboards never show points vanishing. With
// parallelism 1 the abort point is deterministic: the first point
// simulates and emits, the flush fails, everything behind it drains.
func TestMetricsFailedPointsBalance(t *testing.T) {
	ctx := context.Background()
	m := NewMetrics()
	lab := NewLab(WithMetrics(m), WithParallelism(1))
	defer lab.Close()
	if _, err := lab.SweepStream(ctx, testGrid(), failWriter{}); err == nil {
		t.Fatal("sweep with a broken output did not fail")
	}
	s := m.Snapshot()
	if s.PointsOwned != s.PointsSimulated+s.PointsCached+s.PointsFailed {
		t.Errorf("books don't balance: owned %d != simulated %d + cached %d + failed %d",
			s.PointsOwned, s.PointsSimulated, s.PointsCached, s.PointsFailed)
	}
	if s.PointsFailed == 0 {
		t.Error("failed counter is 0 after an aborted sweep")
	}
}

// goldenMetrics is the committed wlansim_* /metrics text that
// TestMetricsGolden diffs against.
const goldenMetrics = "testdata/lab.metrics"

// TestMetricsGolden pins a Lab's /metrics exposition byte for byte
// through a fixed script: a sweep of testGrid with half its points
// served from a cache warmed beforehand, then one Lab.Run, which the
// pool's counters do not see. The pool size is fixed so the workers
// gauge does not follow the machine, and a fake clock, two seconds a
// step, fixes the events/s rate. The text is scraped after each step.
// Run with -update after an intentional change to the metric set.
func TestMetricsGolden(t *testing.T) {
	ctx := context.Background()
	cacheDir := t.TempDir()
	g := testGrid()
	warm := NewLab()
	defer warm.Close()
	if _, err := warm.SweepStream(ctx, g, io.Discard, WithSweepCache(cacheDir), WithShard(0, 2)); err != nil {
		t.Fatal(err)
	}

	var clock atomic.Int64
	clock.Store(time.Unix(1e6, 0).UnixNano())
	m := NewMetrics()
	m.now = func() time.Time { return time.Unix(0, clock.Load()) }
	lab := NewLab(WithMetrics(m), WithParallelism(2))
	defer lab.Close()
	var got bytes.Buffer
	scrapeText := func(stage string) {
		t.Helper()
		clock.Add(int64(2 * time.Second))
		fmt.Fprintf(&got, "--- %s ---\n", stage)
		_, body := scrape(t, m)
		got.WriteString(body)
	}

	scrapeText("startup")
	var st SweepStats
	if _, err := lab.SweepStream(ctx, g, io.Discard, WithSweepCache(cacheDir), WithSweepStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.Cached == 0 || st.Simulated == 0 {
		t.Fatalf("sweep was not a cached+simulated mix: %+v", st)
	}
	scrapeText("sweep half cached")
	if _, err := lab.Run(ctx, Config{Topology: Connected(4), Scheme: DCF, Duration: time.Second}); err != nil {
		t.Fatal(err)
	}
	scrapeText("one Lab.Run")

	if *updateFingerprints {
		if err := os.WriteFile(goldenMetrics, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenMetrics)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("/metrics differs from %s:\ngot:\n%s\nwant:\n%s", goldenMetrics, got.Bytes(), want)
	}
}
