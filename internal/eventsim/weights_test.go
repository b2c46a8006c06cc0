package eventsim

import (
	"testing"

	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
)

func TestDynamicWeightChange(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop convergence run")
	}
	// Section III's claim: "every node could dynamically change their
	// weights and the system would still adapt" — no AP involvement
	// needed, because the weight mapping is applied station-side.
	// Station 0 doubles its weight mid-run; its share must double while
	// the system stays optimal.
	n := 10
	s, _ := wtopSim(t, connectedTopo(n), nil, 83)
	// Grab station 0's policy to mutate its weight at t = 60 s.
	pp := s.stations[0].policy.(*mac.PPersistent)
	s.Scheduler().AtArg(sim.Time(60*sim.Second), func(any) { pp.Weight = 3 }, nil)

	// Phase 1: equal weights.
	res1 := s.Run(60 * sim.Second)
	share1 := res1.Stations[0].Throughput / res1.Throughput

	// Phase 2: station 0 at weight 3. Measure its share over the second
	// phase only (bits delta).
	bitsBefore := res1.Stations[0].BitsDelivered
	totalBefore := int64(0)
	for _, st := range res1.Stations {
		totalBefore += st.BitsDelivered
	}
	res2 := s.Run(150 * sim.Second)
	bitsAfter := res2.Stations[0].BitsDelivered
	totalAfter := int64(0)
	for _, st := range res2.Stations {
		totalAfter += st.BitsDelivered
	}
	share2 := float64(bitsAfter-bitsBefore) / float64(totalAfter-totalBefore)

	// Weight 3 among 9 unit weights: fair share 3/12 = 0.25 vs 0.1.
	if share1 < 0.07 || share1 > 0.13 {
		t.Errorf("phase-1 share %.3f, want ≈ 0.10", share1)
	}
	if share2 < 0.20 || share2 > 0.30 {
		t.Errorf("phase-2 share %.3f, want ≈ 0.25 after weight change", share2)
	}
}

func TestEstimateNBreaksWithHiddenNodes(t *testing.T) {
	// The repository-wide thesis in one test: the model-based EstimateN
	// policy is near-optimal when its model holds and loses badly to the
	// model-free TORA-CSMA when hidden nodes break the model.
	phy := model.PaperPHY()
	tp := hiddenTopo(10) // two mutually hidden clusters
	mkEst := func() []mac.Policy {
		ps := make([]mac.Policy, tp.N())
		for i := range ps {
			ps[i] = mac.NewEstimateN(phy.TcSlots())
		}
		return ps
	}
	est, err := New(Config{Topology: tp, Policies: mkEst(), Seed: 31, PHY: phy})
	if err != nil {
		t.Fatal(err)
	}
	rEst := est.Run(30 * sim.Second)

	tora, _ := toraSim(t, tp, 31)
	rTora := tora.Run(60 * sim.Second)

	if rEst.Throughput >= rTora.ConvergedThroughput(30*sim.Second) {
		t.Errorf("EstimateN %.2f Mbps should lose to TORA %.2f Mbps under hidden nodes",
			rEst.ThroughputMbps(), rTora.ConvergedThroughput(30*sim.Second)/1e6)
	}
	// And in the connected network the same policy is near-optimal.
	conn, err := New(Config{Topology: connectedTopo(10), Policies: mkEst(), Seed: 31, PHY: phy})
	if err != nil {
		t.Fatal(err)
	}
	rConn := conn.Run(30 * sim.Second)
	opt := model.PPersistent{PHY: phy}.MaxThroughput(model.UnitWeights(10))
	if rConn.Throughput < 0.93*opt {
		t.Errorf("EstimateN connected %.2f Mbps < 93%% of optimum %.2f Mbps",
			rConn.ThroughputMbps(), opt/1e6)
	}
}
