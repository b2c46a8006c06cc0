package eventsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
)

func TestDeactivateDuringTransmission(t *testing.T) {
	// Schedule a deactivation certain to land while frames are in the
	// air (saturated stations transmit constantly); the exchange must
	// finish cleanly and the station then go quiet.
	n := 4
	s, err := New(Config{Topology: connectedTopo(n), Policies: fixedPPolicies(n, 0.2), Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		target := n - i%2 // alternate 4 and 3 active stations
		if err := s.SetActiveAt(sim.Time(i)*sim.Time(100*sim.Millisecond), target); err != nil {
			t.Fatal(err)
		}
	}
	res := s.Run(3 * sim.Second)
	if res.Successes == 0 {
		t.Fatal("no successes through churn storm")
	}
	if s.ActiveStations() != 4 {
		t.Errorf("final active = %d, want 4", s.ActiveStations())
	}
}

func TestBeaconsDoNotCorruptThroughputWithoutController(t *testing.T) {
	// Beacons steal airtime but must not break accounting; with a 50 ms
	// interval the cost is bounded (ACKTxTime per beacon).
	n := 8
	base, err := New(Config{Topology: connectedTopo(n), Policies: fixedPPolicies(n, 0.03), Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	withBeacons, err := New(Config{
		Topology:       connectedTopo(n),
		Policies:       fixedPPolicies(n, 0.03),
		Seed:           43,
		BeaconInterval: 50 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rb := base.Run(10 * sim.Second)
	rw := withBeacons.Run(10 * sim.Second)
	if rw.Throughput >= rb.Throughput {
		t.Log("beacon run matched baseline throughput (acceptable within noise)")
	}
	if rw.Throughput < 0.97*rb.Throughput {
		t.Errorf("beacons cost too much: %.3f vs %.3f Mbps", rw.ThroughputMbps(), rb.ThroughputMbps())
	}
}

func TestTORAWithRTSCTSRuns(t *testing.T) {
	// Controller + RTS/CTS compose: TORA tunes the backoff that gates
	// RTS attempts.
	back := model.PaperBackoff()
	ps := make([]mac.Policy, 10)
	for i := range ps {
		ps[i] = mac.NewRandomReset(back.CWMin, back.M, 0, 1)
	}
	s, err := New(Config{
		Topology:   hiddenTopo(10),
		Policies:   ps,
		Controller: core.NewTORA(back.M),
		Seed:       47,
		RTSCTS:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(20 * sim.Second)
	if res.Successes == 0 {
		t.Fatal("no successes")
	}
	// RTS/CTS on a two-cluster hidden topology must hold a decent rate.
	if res.Throughput < 10e6 {
		t.Errorf("TORA+RTS/CTS on hidden clusters: %.2f Mbps, want ≥ 10", res.ThroughputMbps())
	}
}

func TestRunIsResumable(t *testing.T) {
	// Run(d1) then Run(d2 > d1) must equal a single Run(d2) for the same
	// seed (the scheduler keeps exact state).
	mk := func() *Simulator {
		s, err := New(Config{Topology: connectedTopo(6), Policies: fixedPPolicies(6, 0.05), Seed: 53})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	split := mk()
	split.Run(2 * sim.Second)
	r1 := split.Run(5 * sim.Second)
	r2 := mk().Run(5 * sim.Second)
	if r1.Successes != r2.Successes || r1.Collisions != r2.Collisions {
		t.Errorf("split run diverged: %d/%d vs %d/%d",
			r1.Successes, r1.Collisions, r2.Successes, r2.Collisions)
	}
}

func TestZeroStationsTopologyRejected(t *testing.T) {
	tp := connectedTopo(0)
	if _, err := New(Config{Topology: tp, Policies: nil}); err != nil {
		// Zero stations with zero policies is structurally consistent;
		// the simulator should either reject it or run it as dead air.
		return
	}
	s, _ := New(Config{Topology: tp, Policies: []mac.Policy{}})
	if s != nil {
		res := s.Run(100 * sim.Millisecond)
		if res.Successes != 0 || res.Collisions != 0 {
			t.Error("phantom traffic in an empty network")
		}
	}
}

// TestPHYWithDIFSNotAboveSIFSRejected: the AP's answer must start before
// any station's DIFS can end, or a station with no backoff left would
// tie the ACK instead of deferring to it.
func TestPHYWithDIFSNotAboveSIFSRejected(t *testing.T) {
	phy := model.PaperPHY()
	phy.DIFS = phy.SIFS
	_, err := New(Config{Topology: connectedTopo(2), Policies: fixedPPolicies(2, 0.5), PHY: phy})
	if err == nil {
		t.Fatal("New accepted a PHY with DIFS == SIFS")
	}
}
