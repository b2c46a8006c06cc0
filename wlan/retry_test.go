package wlan_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/wlan"
)

// TestRetryCounterSaturates runs eight connected wTOP-CSMA stations,
// whose p-persistent access retries a frame without limit, through a
// TraceWriter: once a sequence has retried, no later attempt of it may
// read as a first attempt, so the counter must stick at 255 rather than
// wrap to 0.
func TestRetryCounterSaturates(t *testing.T) {
	var capture bytes.Buffer
	w := wlan.NewTraceWriter(&capture)
	lab := wlan.NewLab()
	defer lab.Close()
	if _, err := lab.Run(context.Background(), wlan.Config{
		Topology: wlan.Connected(8),
		Scheme:   wlan.WTOPCSMA,
		Duration: 300 * time.Millisecond,
		Trace:    w,
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), capture.Bytes()...)

	type seq struct{ src, seq int }
	retried := map[seq]bool{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var rec struct {
			Type  string `json:"type"`
			Src   int    `json:"src"`
			Seq   int    `json:"seq"`
			Retry int    `json:"retry"`
		}
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type != "Data" {
			continue
		}
		k := seq{rec.Src, rec.Seq}
		if rec.Retry > 0 {
			retried[k] = true
		} else if retried[k] {
			t.Fatalf("station %d sequence %d: an attempt after a retry reads retry 0", rec.Src, rec.Seq)
		}
	}
	sum, err := wlan.AnalyzeTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var maxRetry uint8
	for _, st := range sum.Stations {
		maxRetry = max(maxRetry, st.MaxRetry)
	}
	if maxRetry != 255 {
		t.Errorf("MaxRetry = %d, want 255: the capture never reaches the counter's ceiling", maxRetry)
	}
}
