package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestWriterReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Frame(sim.Time(1000), &frame.Data{
		Source: 3, Destination: frame.AddressAP, Sequence: 9, Retry: 1, Bits: 8000,
	}, true)
	w.Frame(sim.Time(2000), &frame.ACK{Receiver: 3, Sequence: 9}, false)
	w.Frame(sim.Time(3000), &frame.RTS{Source: 4, Duration: 300}, false)
	w.Frame(sim.Time(4000), &frame.CTS{Receiver: 4, Duration: 280}, false)
	w.Frame(sim.Time(5000), &frame.Beacon{Sequence: 1}, false)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 5 {
		t.Errorf("Count = %d", w.Count())
	}
	var recs []Record
	if err := Read(&buf, func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("read %d records", len(recs))
	}
	if recs[0].Type != "Data" || recs[0].Source != 3 || !recs[0].Collided || recs[0].Bits != 8000 {
		t.Errorf("data record wrong: %+v", recs[0])
	}
	if recs[1].Type != "ACK" || recs[1].Source != -1 {
		t.Errorf("ack record wrong: %+v", recs[1])
	}
	if recs[2].Type != "RTS" || recs[2].Source != 4 {
		t.Errorf("rts record wrong: %+v", recs[2])
	}
	if recs[3].Type != "CTS" {
		t.Errorf("cts record wrong: %+v", recs[3])
	}
	if recs[4].Type != "Beacon" {
		t.Errorf("beacon record wrong: %+v", recs[4])
	}
}

// A hostile capture must not index the per-station counters with a
// source outside the station address range: a negative source once
// panicked with "index out of range [-1]", and a huge one sized the
// counters from untrusted input.
func TestShortTermFairnessRejectsBadSource(t *testing.T) {
	for _, capture := range []string{
		`{"type":"Data","src":3}` + "\n" + `{"type":"Data","src":-1}` + "\n",
		`{"type":"Data","src":65536}` + "\n",
		`{"type":"Data","src":-1,"collided":true}` + "\n",
	} {
		if _, _, err := ShortTermFairness(strings.NewReader(capture), 1); err == nil {
			t.Errorf("capture %q accepted", capture)
		}
	}
	// The address range's bounds are valid sources; AP frames carry -1.
	ok := `{"type":"Data","src":0}` + "\n" + `{"type":"ACK","src":-1}` + "\n" + `{"type":"Data","src":65535}` + "\n"
	if _, _, err := ShortTermFairness(strings.NewReader(ok), 1); err != nil {
		t.Errorf("valid capture rejected: %v", err)
	}
}

func TestReadMalformed(t *testing.T) {
	if err := Read(strings.NewReader("{not json}\n"), func(Record) error { return nil }); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestAnalyzeSyntheticCapture(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// Station 0: two frames, one collided; station 1: one clean frame.
	w.Frame(sim.Time(0), &frame.Data{Source: 0, Bits: 8000}, true)
	w.Frame(sim.Time(1e9), &frame.Data{Source: 0, Bits: 8000, Retry: 1}, false)
	w.Frame(sim.Time(2e9), &frame.Data{Source: 1, Bits: 8000}, false)
	w.Frame(sim.Time(2e9+1000), &frame.ACK{Receiver: 1}, false)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := Analyze(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Frames != 4 || sum.Collided != 1 {
		t.Errorf("frames %d collided %d", sum.Frames, sum.Collided)
	}
	if sum.ByType["Data"] != 3 || sum.ByType["ACK"] != 1 {
		t.Errorf("ByType = %v", sum.ByType)
	}
	if len(sum.Stations) != 2 {
		t.Fatalf("stations = %d", len(sum.Stations))
	}
	s0 := sum.Stations[0]
	if s0.Data != 2 || s0.Collided != 1 || s0.BitsOK != 8000 || s0.Retries != 1 || s0.MaxRetry != 1 {
		t.Errorf("station 0 summary wrong: %+v", s0)
	}
	// Span is 2 s + 1 µs; goodput = 16000 bits over that.
	if sum.SpanS < 2.0 || sum.SpanS > 2.1 {
		t.Errorf("span %v", sum.SpanS)
	}
	if sum.GoodputBp < 7000 || sum.GoodputBp > 9000 {
		t.Errorf("goodput %v", sum.GoodputBp)
	}
	if !strings.Contains(sum.String(), "sta0") {
		t.Error("String() missing station lines")
	}
}

func TestShortTermFairness(t *testing.T) {
	// Round-robin sources: perfectly fair at window = multiple of N.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for k := 0; k < 40; k++ {
		w.Frame(sim.Time(k), &frame.Data{Source: frame.Address(k % 4), Bits: 100}, false)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, mean, err := ShortTermFairness(bytes.NewReader(buf.Bytes()), 8)
	if err != nil {
		t.Fatal(err)
	}
	if mean < 0.999 {
		t.Errorf("round-robin mean Jain %v, want ≈ 1", mean)
	}
	// One station hogging: indices near 1/N.
	buf.Reset()
	w = NewWriter(&buf)
	for k := 0; k < 40; k++ {
		src := frame.Address(0)
		if k == 0 {
			src = 3 // make station count 4
		}
		w.Frame(sim.Time(k), &frame.Data{Source: src, Bits: 100}, false)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, mean, err = ShortTermFairness(bytes.NewReader(buf.Bytes()), 8)
	if err != nil {
		t.Fatal(err)
	}
	if mean > 0.5 {
		t.Errorf("hog capture mean Jain %v, want near 1/4", mean)
	}
	// Edge cases.
	if _, _, err := ShortTermFairness(strings.NewReader(""), 0); err == nil {
		t.Error("zero window accepted")
	}
	idx, _, err := ShortTermFairness(strings.NewReader(""), 5)
	if err != nil || idx != nil {
		t.Errorf("empty capture: idx=%v err=%v", idx, err)
	}
}

func TestShortTermFairnessFromSimulation(t *testing.T) {
	// p-persistent stations should show decent short-term fairness at a
	// 3N-frame window (per-slot independence ≈ random scheduling).
	var buf bytes.Buffer
	w := NewWriter(&buf)
	n := 6
	ps := make([]mac.Policy, n)
	for i := range ps {
		ps[i] = mac.NewPPersistent(1, 0.02)
	}
	s, err := eventsim.New(eventsim.Config{
		Topology: topo.New(topo.Point{}, topo.CircleEdge(n, 8), topo.PaperRadii()),
		Policies: ps,
		Seed:     21,
		Trace:    w,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10 * sim.Second)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, mean, err := ShortTermFairness(&buf, 3*n)
	if err != nil {
		t.Fatal(err)
	}
	if mean < 0.75 {
		t.Errorf("p-persistent short-term fairness %v, want ≥ 0.75 at 3N window", mean)
	}
}

func TestEndToEndCaptureFromSimulator(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	n := 5
	ps := make([]mac.Policy, n)
	for i := range ps {
		ps[i] = mac.NewPPersistent(1, 0.03)
	}
	s, err := eventsim.New(eventsim.Config{
		Topology: topo.New(topo.Point{}, topo.CircleEdge(n, 8), topo.PaperRadii()),
		Policies: ps,
		Seed:     11,
		Trace:    w,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(3 * sim.Second)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := Analyze(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(sum.ByType["Data"]) != res.Successes+res.Collisions {
		t.Errorf("capture data frames %d vs sim %d", sum.ByType["Data"], res.Successes+res.Collisions)
	}
	if int64(sum.Collided) != res.Collisions {
		t.Errorf("capture collided %d vs sim %d", sum.Collided, res.Collisions)
	}
	// Capture-derived goodput should be near the simulator's throughput
	// (span differs slightly: first frame vs t=0).
	if sum.GoodputBp < 0.8*res.Throughput || sum.GoodputBp > 1.2*res.Throughput {
		t.Errorf("capture goodput %.2f Mbps vs sim %.2f Mbps", sum.GoodputBp/1e6, res.ThroughputMbps())
	}
	if len(sum.Stations) != n {
		t.Errorf("stations in capture: %d", len(sum.Stations))
	}
}
