package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweep"
)

var update = flag.Bool("update", false, "regenerate the golden metrics exposition")

// goldenMetrics is the committed /metrics text TestCampaignMetricsGolden
// diffs against.
var goldenMetrics = filepath.Join("testdata", "campaign.metrics")

// TestCampaignMetricsGolden pins the coordinator's /metrics exposition
// byte for byte through a scripted fake-clock campaign of six points:
// one served from a pre-warmed cache, two concurrent leases, one lease
// that expires and is reissued, and a late completion of the expired
// lease that lands as two duplicates. The text is scraped after each step,
// and at each scrape /v1/status must agree with Stats(). Run with
// -update after an intentional change to the metric set.
func TestCampaignMetricsGolden(t *testing.T) {
	clock := newFakeClock()
	g := testGrid("svc-metrics", 2, 3, 4, 5, 6, 7)
	pts, err := sweep.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	r := &scenario.Runner{}
	defer r.Close()
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background(), &pts[1].Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(pts[1].Key, &pts[1].Spec, sum); err != nil {
		t.Fatal(err)
	}

	c, err := NewCoordinator(CoordinatorConfig{
		Grid: g, Cache: cache, MaxBatch: 2, LeaseTTL: 10 * time.Second, Now: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var got bytes.Buffer
	scrape := func(stage string) {
		t.Helper()
		fmt.Fprintf(&got, "--- %s ---\n", stage)
		got.Write(httpGet(t, srv.URL+"/metrics"))
		var st StatusResponse
		if err := json.Unmarshal(httpGet(t, srv.URL+"/v1/status"), &st); err != nil {
			t.Fatalf("%s: decode status: %v", stage, err)
		}
		want := c.Stats()
		if st.Total != want.Total || st.Completed != want.Completed || st.Cached != want.Cached ||
			st.Quarantined != want.Quarantined || st.Duplicates != want.Duplicates ||
			st.Reissued != want.Reissued || st.RowsEmitted != want.RowsEmitted {
			t.Errorf("%s: /v1/status %+v disagrees with Stats() %+v", stage, st, want)
		}
	}
	lease := func(worker string) *LeaseResponse {
		t.Helper()
		l, err := c.lease(&LeaseRequest{WorkerID: worker})
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Points) == 0 {
			t.Fatalf("worker %s was granted no points", worker)
		}
		return l
	}
	complete := func(req *CompleteRequest) *CompleteResponse {
		t.Helper()
		resp, err := c.complete(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	scrape("startup")
	stale, other := lease("w1"), lease("w2")
	scrape("two leases granted")
	staleReq := simulateLease(t, r, stale)
	complete(simulateLease(t, r, other))
	scrape("second lease completed")
	clock.Advance(10*time.Second + time.Millisecond)
	reissued := lease("w3")
	scrape("first lease expired and reissued")
	complete(simulateLease(t, r, reissued))
	if !complete(simulateLease(t, r, lease("w4"))).Done {
		t.Fatal("campaign not done after every point completed")
	}
	if late := complete(staleReq); late.Duplicates != len(stale.Points) {
		t.Fatalf("late completion of the expired lease: %+v", late)
	}
	scrape("late completion absorbed")

	if *update {
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

// httpGet fetches url and returns the body of a 200 answer.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body
}
