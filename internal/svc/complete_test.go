package svc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/scheme"
	"repro/internal/sweep"
)

// row is a sweep JSONL row as WriteRow encodes it.
type row struct {
	Index   int               `json:"index"`
	Name    string            `json:"name"`
	Axes    map[string]any    `json:"axes"`
	Key     string            `json:"key"`
	Summary *scenario.Summary `json:"summary"`
}

// coldRows is a single-machine, uncached Stream of g: the bytes every
// coordinator output must equal.
func coldRows(t testing.TB, g *sweep.Grid) []byte {
	t.Helper()
	var ref bytes.Buffer
	if _, err := (&sweep.Runner{}).Stream(context.Background(), g, &ref); err != nil {
		t.Fatal(err)
	}
	return ref.Bytes()
}

// postComplete sends one /v1/complete body through the coordinator's
// HTTP handler and returns the response status.
func postComplete(c *Coordinator, body []byte) int {
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/complete", bytes.NewReader(body)))
	return rec.Code
}

// failOnce is an Out writer whose first Write fails without writing.
type failOnce struct {
	bytes.Buffer
	failed bool
}

func (f *failOnce) Write(p []byte) (int, error) {
	if !f.failed {
		f.failed = true
		return 0, errors.New("disk full")
	}
	return f.Buffer.Write(p)
}

// A row Out refuses is not emitted: the worker's retransmit emits it
// once, and Out equals a single-machine run.
func TestCoordinatorOutWriteErrorEmitsEachRowOnce(t *testing.T) {
	g := testGrid("svc-out-error", 2, 3)
	ref := coldRows(t, g)
	out := &failOnce{}
	c, err := NewCoordinator(CoordinatorConfig{Grid: g, MaxBatch: 2, Out: out, Now: newFakeClock().Now})
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
	if _, err := c.complete(req); err == nil {
		t.Fatal("completion succeeded although Out refused the row")
	}
	if st := c.Stats(); out.Len() != 0 || st.RowsEmitted != 0 {
		t.Fatalf("a row Out refused counts as emitted: %d row(s), %q", st.RowsEmitted, out.Bytes())
	}
	resp, err := c.complete(req)
	if err != nil {
		t.Fatalf("retransmit: %v", err)
	}
	if resp.Duplicates != 2 || !resp.Done {
		t.Fatalf("retransmit: %+v", resp)
	}
	if !bytes.Equal(out.Bytes(), ref) {
		t.Errorf("Out after a failed write:\n%s\nwant:\n%s", out.Bytes(), ref)
	}
	if st := c.Stats(); st.RowsEmitted != 2 || st.Completed != 2 {
		t.Errorf("stats: %+v", st)
	}
	select {
	case <-c.Done():
	default:
		t.Error("campaign finished but Done() is not closed")
	}
}

// A completion whose summary does not describe its point is a bad
// request: it reaches neither the cache nor the rows.
func TestCompleteRejectsSummaryNotDescribingPoint(t *testing.T) {
	g := testGrid("svc-bad-summary", 2, 3)
	pts, err := sweep.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	wrongScheme, err := json.Marshal(&scenario.Summary{Name: pts[0].Name, Scheme: scheme.WTOP, Replications: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		summary string
	}{
		{"null", `null`},
		{"empty object", `{}`},
		{"wrong scheme", string(wrongScheme)},
		{"wrong replications", `{"scheme":"802.11","replications":2}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache, err := sweep.OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			c, err := NewCoordinator(CoordinatorConfig{Grid: g, Cache: cache, Out: &out, Now: newFakeClock().Now})
			if err != nil {
				t.Fatal(err)
			}
			l, err := c.lease(&LeaseRequest{WorkerID: "w"})
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(&CompleteRequest{LeaseID: l.LeaseID, WorkerID: "w", Points: []CompletedPoint{
				{Index: 0, Key: pts[0].Key, Summary: json.RawMessage(tc.summary)},
			}})
			if err != nil {
				t.Fatal(err)
			}
			if code := postComplete(c, body); code != http.StatusBadRequest {
				t.Errorf("status %d, want %d", code, http.StatusBadRequest)
			}
			if _, ok := cache.Get(pts[0].Key); ok {
				t.Error("the rejected summary reached the cache")
			}
			if out.Len() != 0 {
				t.Errorf("the rejected summary was emitted: %q", out.Bytes())
			}
			if st := c.Stats(); st.Completed != 0 {
				t.Errorf("stats: %+v", st)
			}
		})
	}
}

// A coordinator resuming under another grid name serves the cached
// summaries under its own point names: the rows equal a cold run of the
// resuming grid, and no point re-simulates.
func TestCoordinatorResumesUnderAnotherGridName(t *testing.T) {
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &scenario.Runner{}
	defer r.Close()
	fill, err := NewCoordinator(CoordinatorConfig{Grid: testGrid(`fill "quoted" <&> \ grid`, 2, 3, 4), Cache: cache, MaxBatch: 2, Now: newFakeClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	drainCampaign(t, fill, r)

	g := testGrid("résumé/日本語\u2028", 2, 3, 4)
	ref := coldRows(t, g)
	var out bytes.Buffer
	c, err := NewCoordinator(CoordinatorConfig{Grid: g, Cache: cache, Out: &out, Now: newFakeClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Cached != 3 || st.Completed != 0 {
		t.Fatalf("resume stats: %+v", st)
	}
	if !bytes.Equal(out.Bytes(), ref) {
		t.Errorf("resumed rows:\n%s\nwant a cold run of the resuming grid:\n%s", out.Bytes(), ref)
	}
}

// FuzzCompleteRequest posts arbitrary bodies to /v1/complete on a
// 2-point campaign. In a body, @key0@ and @key1@ stand for the points'
// cache keys and @sum0@ and @sum1@ for their genuine summaries. Whatever
// the body, the coordinator must not panic; a rejected request must
// change nothing; every done point must have a cache entry that decodes
// to a summary of its point; and the rows must be the cold rows' prefix:
// byte-equal where the accepted summary is genuine, and otherwise the
// canonical row of a summary that describes the point (the coordinator
// cannot tell a well-formed forgery from a simulation without running
// it).
func FuzzCompleteRequest(f *testing.F) {
	g := testGrid("svc-fuzz", 2, 3)
	pts, err := sweep.Expand(g)
	if err != nil {
		f.Fatal(err)
	}
	cold := coldRows(f, g)
	results, _, err := (&sweep.Runner{}).Run(context.Background(), g)
	if err != nil {
		f.Fatal(err)
	}
	coldLines := strings.SplitAfter(string(cold), "\n")
	subst := []string{"@key0@", pts[0].Key, "@key1@", pts[1].Key}
	for i, pr := range results {
		data, err := json.Marshal(pr.Summary)
		if err != nil {
			f.Fatal(err)
		}
		subst = append(subst, fmt.Sprintf("@sum%d@", i), string(data))
	}
	expand := strings.NewReplacer(subst...)

	for _, seed := range []string{
		`{"lease_id":"l","worker_id":"w","points":[{"index":0,"key":"@key0@","summary":@sum0@},{"index":1,"key":"@key1@","summary":@sum1@}]}`,
		`{"points":[{"index":1,"key":"@key1@","summary":@sum1@}]}`,
		`{"points":[{"index":0,"key":"@key0@","summary":@sum0@},{"index":0,"key":"@key0@","summary":@sum0@}]}`,
		`{"points":[{"index":0,"key":"@key0@","summary":{"scheme":"802.11","replications":1}}]}`,
		`{"points":[{"index":0,"key":"@key0@","summary":null}]}`,
		`{"points":[{"index":0,"key":"@key0@","summary":{}}]}`,
		`{"points":[{"index":0,"key":"@key0@","summary":{"scheme":"wTOP-CSMA","replications":1}}]}`,
		`{"points":[{"index":0,"key":"@key0@","summary":@sum0@},{"index":1,"key":"@key1@","summary":null}]}`,
		`{"points":[{"index":0,"key":"@key1@","summary":@sum1@}]}`,
		`{"points":[{"index":2,"key":"@key0@","summary":@sum0@}]}`,
		`{"points":[{"index":-1}]}`,
		`{"points":null}`,
		`{"points":[{"index":0,"key":"@key0@"}]}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		cache, err := sweep.OpenCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		c, err := NewCoordinator(CoordinatorConfig{Grid: g, Cache: cache, Out: &out, Now: newFakeClock().Now})
		if err != nil {
			t.Fatal(err)
		}
		code := postComplete(c, []byte(expand.Replace(string(body))))
		rows := out.Bytes()
		if code != http.StatusOK && (c.Stats().Completed != 0 || len(rows) != 0) {
			t.Fatalf("status %d, yet %d point(s) completed and %d row byte(s) emitted", code, c.Stats().Completed, len(rows))
		}
		prefix := 0
		for i, pt := range pts {
			if !c.ledger.Done(i) {
				continue
			}
			if prefix == i {
				prefix++
			}
			sum, ok := cache.Get(pt.Key)
			if !ok || sum.Scheme != pt.Spec.Scheme || sum.Replications != pt.Spec.Seeds {
				t.Fatalf("point %d done, but its cache entry is %+v (ok=%v)", i, sum, ok)
			}
		}
		sc := bufio.NewScanner(bytes.NewReader(rows))
		n := 0
		for ; sc.Scan(); n++ {
			line := sc.Text() + "\n"
			if n >= len(pts) {
				t.Fatalf("row %d beyond the %d-point campaign", n, len(pts))
			}
			if line == coldLines[n] {
				continue
			}
			var got, want row
			if err := json.Unmarshal([]byte(line), &got); err != nil || got.Summary == nil {
				t.Fatalf("row %d does not decode to a summary (%v): %s", n, err, line)
			}
			if err := json.Unmarshal([]byte(coldLines[n]), &want); err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(got.Summary, want.Summary) {
				t.Fatalf("row %d carries the genuine summary but differs from the cold row:\n%s%s", n, line, coldLines[n])
			}
			if got.Index != want.Index || got.Name != want.Name || got.Key != want.Key || !reflect.DeepEqual(got.Axes, want.Axes) ||
				got.Summary.Name != want.Name || got.Summary.Scheme != want.Summary.Scheme || got.Summary.Replications != want.Summary.Replications {
				t.Fatalf("row %d does not describe point %d:\n%s%s", n, n, line, coldLines[n])
			}
			canon, err := json.Marshal(&got)
			if err != nil {
				t.Fatal(err)
			}
			if line != string(canon)+"\n" {
				t.Fatalf("row %d is not canonical:\n%s%s\n", n, line, canon)
			}
		}
		if n != prefix {
			t.Fatalf("%d rows emitted for a done prefix of %d", n, prefix)
		}
	})
}
