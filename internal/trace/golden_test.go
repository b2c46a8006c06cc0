package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/topo"
)

var update = flag.Bool("update", false, "regenerate the golden capture")

// goldenCapture is the committed capture TestCaptureGolden diffs against.
var goldenCapture = filepath.Join("testdata", "capture.golden.jsonl")

// TestCaptureGolden pins the Writer's output byte for byte: a short
// TORA-CSMA run with RTS/CTS and 10 % frame errors on a 20 m disc (hidden
// pairs, so collided RTS frames, and lost data frames that retry) that
// lasts past the first 102.4 ms beacon, which puts all five frame types
// into the capture. Run with -update after an intentional change to the
// capture format or the engine.
func TestCaptureGolden(t *testing.T) {
	const n = 8
	pts := topo.UniformDisc(n, 20, sim.NewRNG(7))
	topo.ClampToRim(pts, topo.PaperRadii())
	policies, controller, err := scheme.Build(scheme.TORA, nil, n)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	s, err := eventsim.New(eventsim.Config{
		Topology:       topo.New(topo.Point{}, pts, topo.PaperRadii()),
		Policies:       policies,
		Controller:     controller,
		Seed:           3,
		RTSCTS:         true,
		FrameErrorRate: 0.1,
		Trace:          w,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(120 * sim.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	seen := map[string]int{}
	collided := 0
	if err := Read(bytes.NewReader(buf.Bytes()), func(r Record) error {
		seen[r.Type]++
		if r.Collided {
			collided++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, typ := range []string{"Data", "ACK", "RTS", "CTS", "Beacon"} {
		if seen[typ] == 0 {
			t.Errorf("capture has no %s frame: %v", typ, seen)
		}
	}
	if collided == 0 {
		t.Error("capture has no collided frame")
	}

	if *update {
		if err := os.WriteFile(goldenCapture, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenCapture)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("capture drifted from %s (%d bytes, want %d); run with -update only after an intentional change",
			goldenCapture, buf.Len(), len(want))
	}
}
