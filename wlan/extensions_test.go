package wlan

import (
	"bytes"
	"testing"
	"time"
)

func TestRTSCTSThroughFacade(t *testing.T) {
	// Two-cluster hidden topology: RTS/CTS must rescue throughput.
	tp := Custom([]Point{{X: -15}, {X: -15, Y: 0.5}, {X: 15}, {X: 15, Y: 0.5}})
	if len(tp.HiddenPairs()) == 0 {
		t.Fatal("expected hidden pairs")
	}
	basic, err := run(Config{Topology: tp, Duration: 8 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := run(Config{Topology: tp, Duration: 8 * time.Second, RTSCTS: true})
	if err != nil {
		t.Fatal(err)
	}
	if prot.CollisionRate() >= basic.CollisionRate() {
		t.Errorf("RTS/CTS collision rate %.3f not below basic %.3f",
			prot.CollisionRate(), basic.CollisionRate())
	}
}

func TestFrameErrorsThroughFacade(t *testing.T) {
	res, err := run(Config{
		Topology:       Connected(4),
		Duration:       5 * time.Second,
		FrameErrorRate: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameErrors == 0 {
		t.Error("no frame errors recorded")
	}
	if _, err := run(Config{Topology: Connected(2), FrameErrorRate: 1}); err == nil {
		t.Error("FrameErrorRate = 1 accepted")
	}
}

func TestTraceCaptureThroughFacade(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	res, err := run(Config{
		Topology: Connected(4),
		Duration: 3 * time.Second,
		Trace:    w,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := AnalyzeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A data frame whose ACK is still in flight at the end of the run is
	// traced but not yet counted, so allow a one-frame boundary gap.
	if diff := int64(sum.ByType["Data"]) - (res.Successes + res.Collisions); diff < 0 || diff > 1 {
		t.Errorf("trace data count %d vs sim %d", sum.ByType["Data"], res.Successes+res.Collisions)
	}
	if sum.String() == "" {
		t.Error("empty summary")
	}
}
