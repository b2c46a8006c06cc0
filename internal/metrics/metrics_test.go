package metrics

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeOps(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

// TestWritePrometheus pins the exposition format: HELP/TYPE preamble,
// one sample line per metric, sorted by name.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Gauge("zz_gauge", "last by name").Set(-3)
	r.Counter("aa_total", "first by name").Add(5)
	r.GaugeFunc("mm_rate", "derived", func() float64 { return 0.25 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# HELP aa_total first by name\n# TYPE aa_total counter\naa_total 5\n" +
		"# HELP mm_rate derived\n# TYPE mm_rate gauge\nmm_rate 0.25\n" +
		"# HELP zz_gauge last by name\n# TYPE zz_gauge gauge\nzz_gauge -3\n"
	if sb.String() != want {
		t.Fatalf("rendered:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// A CounterFunc renders the caller's value at each scrape, with the
// counter type and an integer sample.
func TestCounterFuncReadsAtRender(t *testing.T) {
	r := NewRegistry()
	var n uint64 = 1 << 40
	r.CounterFunc("owned_total", "read from the caller's record", func() uint64 { return n })
	for _, want := range []string{"owned_total 1099511627776\n", "owned_total 1099511627777\n"} {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if got := sb.String(); !strings.Contains(got, "# TYPE owned_total counter\n"+want) {
			t.Fatalf("rendered:\n%s\nwant sample %q", got, want)
		}
		n++
	}
}

// Non-finite derived values must render as 0, not break the scrape.
func TestGaugeFuncNonFinite(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("bad", "div by zero", func() float64 { return math.NaN() })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\nbad 0\n") {
		t.Fatalf("NaN not rendered as 0:\n%s", sb.String())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup", "")
}

func TestHandlerServesTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Add(3)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "hits_total 3\n") {
		t.Fatalf("body missing sample:\n%s", body)
	}
}

// Concurrent observation while rendering must be race-free (run under
// -race in CI).
func TestConcurrentObserveAndRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("spins_total", "")
	g := r.Gauge("level", "")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Fatalf("counter = %d, want 4000", c.Value())
	}
}
