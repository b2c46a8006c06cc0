package slotsim

import (
	"testing"
	"testing/quick"

	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
)

func TestTimeConservationExact(t *testing.T) {
	// The slotted engine's clock must decompose exactly into
	// idle·σ + successes·Ts + collisions·Tc — no time is created or
	// destroyed by the renewal bookkeeping.
	phy := model.PaperPHY()
	for _, tc := range []struct {
		n int
		p float64
	}{
		{1, 0.5}, {5, 0.1}, {20, 0.02}, {40, 0.2},
	} {
		s, err := New(Config{Policies: pPolicies(tc.n, tc.p), Seed: int64(tc.n), PHY: phy})
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run(5 * sim.Second)
		accounted := sim.Duration(res.IdleSlots)*phy.Slot +
			sim.Duration(res.Successes)*phy.Ts() +
			sim.Duration(res.Collisions)*phy.Tc()
		if accounted != res.Duration {
			t.Errorf("N=%d p=%v: accounted %v ≠ duration %v", tc.n, tc.p, accounted, res.Duration)
		}
	}
}

func TestTimeConservationProperty(t *testing.T) {
	phy := model.PaperPHY()
	prop := func(seed int64, nRaw, pRaw uint8) bool {
		n := 1 + int(nRaw%30)
		p := 0.005 + float64(pRaw)/255*0.4
		s, err := New(Config{Policies: pPolicies(n, p), Seed: seed, PHY: phy})
		if err != nil {
			return false
		}
		res := s.Run(500 * sim.Millisecond)
		accounted := sim.Duration(res.IdleSlots)*phy.Slot +
			sim.Duration(res.Successes)*phy.Ts() +
			sim.Duration(res.Collisions)*phy.Tc()
		return accounted == res.Duration
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPerStationBitsSumToTotal(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw%20)
		s, err := New(Config{Policies: pPolicies(n, 0.05), Seed: seed})
		if err != nil {
			return false
		}
		res := s.Run(sim.Second)
		var bits int64
		for _, b := range res.PerStation {
			bits += b
		}
		return bits == res.Successes*int64(model.PaperPHY().Payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMixedPolicyPopulation(t *testing.T) {
	// The engine must drive heterogeneous policy populations; a fixed-p*
	// station among DCF stations should gain share, not crash anything.
	n := 10
	phy := model.PaperPHY()
	star := model.PPersistent{PHY: phy}.OptimalP(model.UnitWeights(n))
	policies := make([]mac.Policy, n)
	for i := range policies {
		if i == 0 {
			policies[i] = mac.NewPPersistent(1, star*3) // aggressive
		} else {
			policies[i] = mac.NewStandardDCF(8, 1024)
		}
	}
	s, err := New(Config{Policies: policies, Seed: 4, PHY: phy})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(10 * sim.Second)
	if res.PerStation[0] <= res.PerStation[1] {
		t.Errorf("aggressive station 0 (%d bits) did not out-deliver DCF station (%d bits)",
			res.PerStation[0], res.PerStation[1])
	}
}

func TestSlowDecreaseBeatsDCFConnected(t *testing.T) {
	// The related-work claim for [15]: slow decrease improves on standard
	// DCF in a crowded connected network but stays below the optimum.
	n := 30
	phy := model.PaperPHY()
	run := func(mk func() mac.Policy) float64 {
		policies := make([]mac.Policy, n)
		for i := range policies {
			policies[i] = mk()
		}
		s, err := New(Config{Policies: policies, Seed: 8, PHY: phy})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(20 * sim.Second).Throughput
	}
	dcf := run(func() mac.Policy { return mac.NewStandardDCF(8, 1024) })
	slow := run(func() mac.Policy { return mac.NewSlowDecrease(8, 1024) })
	opt := model.PPersistent{PHY: phy}.MaxThroughput(model.UnitWeights(n))
	if slow <= dcf {
		t.Errorf("SlowDecrease %.2f Mbps not above DCF %.2f Mbps", slow/1e6, dcf/1e6)
	}
	if slow >= opt {
		t.Errorf("SlowDecrease %.2f Mbps implausibly above the optimum %.2f Mbps", slow/1e6, opt/1e6)
	}
}

func TestEstimateNNearOptimalConnected(t *testing.T) {
	// EstimateN embodies the model-based approach: in the connected
	// network its closed-form tuning should land within a few percent of
	// the optimum (the paper's premise — these schemes only break when
	// the model does).
	n := 30
	phy := model.PaperPHY()
	policies := make([]mac.Policy, n)
	for i := range policies {
		policies[i] = mac.NewEstimateN(phy.TcSlots())
	}
	s, err := New(Config{Policies: policies, Seed: 12, PHY: phy})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(30 * sim.Second)
	opt := model.PPersistent{PHY: phy}.MaxThroughput(model.UnitWeights(n))
	if res.Throughput < 0.95*opt {
		t.Errorf("EstimateN %.2f Mbps < 95%% of optimum %.2f Mbps", res.ThroughputMbps(), opt/1e6)
	}
}
