package eventsim

import (
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/topo"
)

// connectedTopo returns a fully connected N-station topology (circle of
// radius 8, paper radii).
func connectedTopo(n int) *topo.Topology {
	return topo.New(topo.Point{}, topo.CircleEdge(n, 8), topo.PaperRadii())
}

// hiddenTopo returns a deterministic topology where the two halves of the
// stations cannot sense each other.
func hiddenTopo(n int) *topo.Topology {
	return topo.New(topo.Point{}, topo.TwoClusters(n, 30), topo.PaperRadii())
}

func fixedPPolicies(n int, p float64) []mac.Policy {
	ps := make([]mac.Policy, n)
	for i := range ps {
		pp := mac.NewPPersistent(1, p)
		ps[i] = pp
	}
	return ps
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil topology accepted")
	}
	tp := connectedTopo(3)
	if _, err := New(Config{Topology: tp}); err == nil {
		t.Error("missing policies accepted")
	}
	if _, err := New(Config{Topology: tp, Policies: []mac.Policy{nil, nil, nil}}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := New(Config{Topology: tp, Policies: fixedPPolicies(3, 0.1), UpdatePeriod: -1}); err == nil {
		t.Error("negative update period accepted")
	}
	if _, err := New(Config{Topology: tp, Policies: fixedPPolicies(3, 0.1), InitialActive: 5}); err == nil {
		t.Error("InitialActive > N accepted")
	}
	s, err := New(Config{Topology: tp, Policies: fixedPPolicies(3, 0.1), Seed: 1})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if s.ActiveStations() != 3 {
		t.Errorf("ActiveStations = %d, want 3", s.ActiveStations())
	}
}

func TestSingleStationSaturation(t *testing.T) {
	// One station alone must deliver back-to-back frames with zero
	// collisions. Per-frame cycle = Ts + E[backoff]·σ; with p = 0.5 the
	// mean backoff is 1 slot.
	phy := model.PaperPHY()
	s, err := New(Config{
		Topology: connectedTopo(1),
		Policies: fixedPPolicies(1, 0.5),
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(5 * sim.Second)
	if res.Collisions != 0 {
		t.Errorf("collisions = %d, want 0", res.Collisions)
	}
	if res.Successes == 0 {
		t.Fatal("no successes")
	}
	cycle := phy.Ts().Seconds() + 1*phy.Slot.Seconds()
	want := float64(phy.Payload) / cycle
	if math.Abs(res.Throughput-want)/want > 0.03 {
		t.Errorf("throughput %v, want ≈ %v (single-station renewal)", res.Throughput, want)
	}
	if res.MaxConcurrent != 1 {
		t.Errorf("MaxConcurrent = %d, want 1", res.MaxConcurrent)
	}
}

func TestMatchesAnalyticModelFullyConnected(t *testing.T) {
	// The headline calibration: event-driven simulation with fixed
	// attempt probability must land on Eq. (3) in a fully connected
	// network. This validates the slot/DIFS/freeze machinery end to end.
	phy := model.PaperPHY()
	m := model.PPersistent{PHY: phy}
	for _, tc := range []struct {
		n int
		p float64
	}{
		{5, 0.02}, {10, 0.02}, {20, 0.01}, {20, 0.05},
	} {
		s, err := New(Config{
			Topology: connectedTopo(tc.n),
			Policies: fixedPPolicies(tc.n, tc.p),
			Seed:     int64(tc.n * 1000),
		})
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run(20 * sim.Second)
		attempt := make([]float64, tc.n)
		for i := range attempt {
			attempt[i] = tc.p
		}
		want := m.SystemThroughputAt(attempt)
		rel := math.Abs(res.Throughput-want) / want
		if rel > 0.06 {
			t.Errorf("N=%d p=%v: sim %.3f Mbps vs model %.3f Mbps (rel err %.3f)",
				tc.n, tc.p, res.Throughput/1e6, want/1e6, rel)
		}
	}
}

func TestFairnessEqualWeightsFullyConnected(t *testing.T) {
	s, err := New(Config{
		Topology: connectedTopo(10),
		Policies: fixedPPolicies(10, 0.03),
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(20 * sim.Second)
	if j := res.JainIndex(); j < 0.97 {
		t.Errorf("Jain index %v, want ≥ 0.97 for identical stations", j)
	}
	// Conservation: per-station bits sum to the total.
	var bits int64
	for _, st := range res.Stations {
		bits += st.BitsDelivered
	}
	if got := float64(bits) / res.Duration.Seconds(); math.Abs(got-res.Throughput) > 1 {
		t.Errorf("station bits %.0f b/s vs total %.0f b/s", got, res.Throughput)
	}
}

func TestCollisionsIncreaseWithAttemptProbability(t *testing.T) {
	rate := func(p float64) float64 {
		s, err := New(Config{
			Topology: connectedTopo(15),
			Policies: fixedPPolicies(15, p),
			Seed:     11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(10 * sim.Second).CollisionRate()
	}
	low, high := rate(0.005), rate(0.1)
	if low >= high {
		t.Errorf("collision rate must rise with p: %.3f at 0.005 vs %.3f at 0.1", low, high)
	}
}

func TestQuasiConcaveThroughputInP(t *testing.T) {
	// Sweep p over a decade around the optimum; the simulated throughput
	// must peak in the interior (Fig. 2's bell shape).
	n := 20
	ps := []float64{0.002, 0.005, 0.015, 0.05, 0.15, 0.4}
	var ss []float64
	for _, p := range ps {
		s, err := New(Config{
			Topology: connectedTopo(n),
			Policies: fixedPPolicies(n, p),
			Seed:     int64(1000 * p),
		})
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s.Run(8*sim.Second).Throughput)
	}
	best := 0
	for i, v := range ss {
		if v > ss[best] {
			best = i
		}
	}
	if best == 0 || best == len(ss)-1 {
		t.Errorf("throughput peaked at the sweep edge: %v", ss)
	}
}

func TestHiddenNodesCollapseThroughput(t *testing.T) {
	// Two mutually hidden clusters at a p that is comfortable in a
	// connected network must see mass collisions: carrier sense is blind
	// across clusters, so overlaps at the AP are rampant.
	p := 0.02
	n := 10
	conn, err := New(Config{Topology: connectedTopo(n), Policies: fixedPPolicies(n, p), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hid, err := New(Config{Topology: hiddenTopo(n), Policies: fixedPPolicies(n, p), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rc := conn.Run(10 * sim.Second)
	rh := hid.Run(10 * sim.Second)
	if rh.Throughput >= rc.Throughput {
		t.Errorf("hidden topology (%.2f Mbps) should underperform connected (%.2f Mbps)",
			rh.ThroughputMbps(), rc.ThroughputMbps())
	}
	if rh.CollisionRate() <= rc.CollisionRate()*1.5 {
		t.Errorf("hidden collision rate %.3f not clearly above connected %.3f",
			rh.CollisionRate(), rc.CollisionRate())
	}
	if rh.MaxConcurrent < 2 {
		t.Error("hidden topology never overlapped transmissions")
	}
}

func TestHiddenPairOverlapDetection(t *testing.T) {
	// With exactly two mutually hidden stations at very high p, almost
	// every transmission should collide: each station cannot sense the
	// other, so it counts down straight through the other's frames.
	tp := hiddenTopo(2)
	if tp.FullyConnected() {
		t.Fatal("test topology unexpectedly connected")
	}
	s, err := New(Config{Topology: tp, Policies: fixedPPolicies(2, 0.5), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(5 * sim.Second)
	if res.CollisionRate() < 0.8 {
		t.Errorf("collision rate %.3f, want ≈ 1 for aggressive hidden pair", res.CollisionRate())
	}
}

func TestConnectedPairNoHiddenCollisionsAtModestP(t *testing.T) {
	// Two stations that sense each other can only collide via
	// slot-synchronised attempts, which at small p are rare.
	s, err := New(Config{Topology: connectedTopo(2), Policies: fixedPPolicies(2, 0.01), Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(10 * sim.Second)
	if res.CollisionRate() > 0.05 {
		t.Errorf("collision rate %.3f too high for p=0.01, N=2", res.CollisionRate())
	}
}

func TestDCFPoliciesRunAndDegrade(t *testing.T) {
	// Standard DCF with CWmin=8: throughput at N=40 must be below
	// throughput at N=10 (Fig. 3's declining 802.11 curve).
	run := func(n int) float64 {
		ps := make([]mac.Policy, n)
		for i := range ps {
			ps[i] = mac.NewStandardDCF(8, 1024)
		}
		s, err := New(Config{Topology: connectedTopo(n), Policies: ps, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(10 * sim.Second).Throughput
	}
	s10, s40 := run(10), run(40)
	if s40 >= s10 {
		t.Errorf("DCF throughput should degrade with N: S(10)=%.2f, S(40)=%.2f Mbps", s10/1e6, s40/1e6)
	}
}

func TestDCFMatchesBianchiModel(t *testing.T) {
	// The event simulator running standard DCF should land near the
	// Bianchi fixed-point prediction in a fully connected network.
	for _, n := range []int{5, 15, 30} {
		ps := make([]mac.Policy, n)
		for i := range ps {
			ps[i] = mac.NewStandardDCF(8, 1024)
		}
		s, err := New(Config{Topology: connectedTopo(n), Policies: ps, Seed: int64(n * 7)})
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run(15 * sim.Second)
		want := model.DCF{PHY: model.PaperPHY(), Backoff: model.PaperBackoff(), N: n}.Throughput()
		rel := math.Abs(res.Throughput-want) / want
		if rel > 0.12 {
			t.Errorf("N=%d: sim %.2f Mbps vs Bianchi %.2f Mbps (rel %.3f)",
				n, res.Throughput/1e6, want/1e6, rel)
		}
	}
}

func TestIdleSlotTrackerMatchesModel(t *testing.T) {
	// AP-observed idle slots per transmission ≈ PI/(1−PI) with
	// PI = (1−p)^N in a fully connected network.
	n, p := 20, 0.02
	s, err := New(Config{Topology: connectedTopo(n), Policies: fixedPPolicies(n, p), Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(15 * sim.Second)
	pi := math.Pow(1-p, float64(n))
	want := pi / (1 - pi)
	if math.Abs(res.APIdleSlots-want)/want > 0.15 {
		t.Errorf("AP idle slots %.3f, want ≈ %.3f", res.APIdleSlots, want)
	}
}

func TestDynamicActivation(t *testing.T) {
	n := 12
	s, err := New(Config{
		Topology:      connectedTopo(n),
		Policies:      fixedPPolicies(n, 0.02),
		Seed:          19,
		InitialActive: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.ActiveStations() != 4 {
		t.Fatalf("initial active = %d, want 4", s.ActiveStations())
	}
	if err := s.SetActiveAt(sim.Time(2*sim.Second), 12); err != nil {
		t.Fatal(err)
	}
	if err := s.SetActiveAt(sim.Time(4*sim.Second), 6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetActiveAt(sim.Time(1*sim.Second), 99); err == nil {
		t.Error("out-of-range SetActiveAt accepted")
	}
	res := s.Run(6 * sim.Second)
	if s.ActiveStations() != 6 {
		t.Errorf("final active = %d, want 6", s.ActiveStations())
	}
	// Stations 6..11 were only active during [2s, 4s]; they must have
	// delivered something, and stations 0..3 more than them.
	lateBits := res.Stations[7].BitsDelivered
	earlyBits := res.Stations[0].BitsDelivered
	if lateBits == 0 {
		t.Error("late-arriving station delivered nothing")
	}
	if earlyBits <= lateBits {
		t.Errorf("always-on station (%d bits) should out-deliver the 2s-window station (%d bits)",
			earlyBits, lateBits)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() *Result {
		s, err := New(Config{Topology: connectedTopo(8), Policies: fixedPPolicies(8, 0.03), Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(3 * sim.Second)
	}
	a, b := run(), run()
	if a.Successes != b.Successes || a.Collisions != b.Collisions || a.Throughput != b.Throughput {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	s2, _ := New(Config{Topology: connectedTopo(8), Policies: fixedPPolicies(8, 0.03), Seed: 24})
	c := s2.Run(3 * sim.Second)
	if c.Successes == a.Successes && c.Collisions == a.Collisions {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

// recordingTracer counts frames by type for trace-integration tests.
type recordingTracer struct {
	data, acks, beacons, collided int
}

func (r *recordingTracer) Frame(_ sim.Time, f frame.Layer, collided bool) {
	switch f.FrameType() {
	case frame.TypeData:
		r.data++
	case frame.TypeACK:
		r.acks++
	case frame.TypeBeacon:
		r.beacons++
	}
	if collided {
		r.collided++
	}
}

func TestTracerSeesConsistentFrames(t *testing.T) {
	tr := &recordingTracer{}
	s, err := New(Config{
		Topology:       connectedTopo(5),
		Policies:       fixedPPolicies(5, 0.03),
		Seed:           29,
		Trace:          tr,
		BeaconInterval: 100 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(5 * sim.Second)
	// Frames whose ACK is still in flight at the end of the run are
	// traced but not yet counted; allow a one-frame boundary gap.
	if diff := int64(tr.data) - (res.Successes + res.Collisions); diff < 0 || diff > 1 {
		t.Errorf("traced %d data frames, want %d", tr.data, res.Successes+res.Collisions)
	}
	if int64(tr.acks) != res.Successes {
		t.Errorf("traced %d ACKs, want %d", tr.acks, res.Successes)
	}
	if int64(tr.collided) != res.Collisions {
		t.Errorf("traced %d collided frames, want %d", tr.collided, res.Collisions)
	}
	if tr.beacons == 0 {
		t.Error("no beacons traced despite BeaconInterval")
	}
}

func TestResultHelpers(t *testing.T) {
	s, err := New(Config{Topology: connectedTopo(4), Policies: fixedPPolicies(4, 0.05), Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(2 * sim.Second)
	if res.ThroughputMbps() != res.Throughput/1e6 {
		t.Error("ThroughputMbps inconsistent")
	}
	if res.String() == "" {
		t.Error("String empty")
	}
	if res.EventsFired == 0 {
		t.Error("EventsFired zero")
	}
	if w := res.WeightedJainIndex(); w < 0.9 {
		t.Errorf("weighted Jain %v for equal stations", w)
	}
	conv := res.ConvergedThroughput(1 * sim.Second)
	if conv <= 0 {
		t.Errorf("ConvergedThroughput = %v", conv)
	}
}
