package wlan_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/wlan"
)

// sourceCounter is a Tracer written the way code outside this module
// writes one, against the wlan package alone: it counts each station's
// uncollided data frames and hands every frame on to next.
type sourceCounter struct {
	next wlan.Tracer
	ok   map[int]int
}

func (c *sourceCounter) Frame(at wlan.TraceTime, f wlan.Frame, collided bool) {
	if d, isData := f.(*wlan.DataFrame); isData && !collided {
		c.ok[int(d.Source)]++
	}
	c.next.Frame(at, f, collided)
}

// TestTracerImplementableOutsideModule runs one hidden-node simulation
// through a custom Tracer teed into a TraceWriter: the custom tracer's
// per-station counts must match AnalyzeTrace's over the same capture.
func TestTracerImplementableOutsideModule(t *testing.T) {
	var capture bytes.Buffer
	w := wlan.NewTraceWriter(&capture)
	c := &sourceCounter{next: w, ok: map[int]int{}}
	lab := wlan.NewLab()
	defer lab.Close()
	if _, err := lab.Run(context.Background(), wlan.Config{
		Topology:       wlan.HiddenDisc(8, 20, 7),
		Scheme:         wlan.DCF,
		FrameErrorRate: 0.1,
		Duration:       300 * time.Millisecond,
		Trace:          c,
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := wlan.AnalyzeTrace(&capture)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{}
	collided := 0
	for _, st := range sum.Stations {
		if n := st.Data - st.Collided; n > 0 {
			want[st.Station] = n
		}
		collided += st.Collided
	}
	if len(want) < 2 || collided == 0 {
		t.Fatalf("capture too thin to compare: %d delivering stations, %d collided data frames", len(want), collided)
	}
	if len(c.ok) != len(want) {
		t.Errorf("custom tracer saw %d delivering stations, AnalyzeTrace %d", len(c.ok), len(want))
	}
	for src, n := range want {
		if c.ok[src] != n {
			t.Errorf("station %d: custom tracer counted %d uncollided data frames, AnalyzeTrace %d", src, c.ok[src], n)
		}
	}
}
