package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/frame"
	"repro/internal/model"
)

func TestWTOPControlBlock(t *testing.T) {
	w := NewWTOP(WTOPConfig{})
	ctrl := w.Control()
	if ctrl.Scheme != frame.ControlWTOP {
		t.Errorf("scheme = %v", ctrl.Scheme)
	}
	// First plus-probe in log space: exp(ln 0.5 + b_2) ≈ 1.1, clamped to
	// the MaxP = 0.9 cap.
	if math.Abs(ctrl.P-0.9) > 1e-12 {
		t.Errorf("first probe P = %v, want clamp at 0.9", ctrl.P)
	}
}

func TestWTOPDefaultsRespectAlgorithm1(t *testing.T) {
	w := NewWTOP(WTOPConfig{})
	if w.PVal() != 0.5 {
		t.Errorf("initial pval = %v, want 0.5", w.PVal())
	}
	if w.kw.K() != 2 {
		t.Errorf("initial k = %d, want 2", w.kw.K())
	}
	// Probes must never exceed 0.9 (Algorithm 1's clamp).
	w.OnWindowEnd(1e12) // absurd positive gradient pressure
	w.OnWindowEnd(0)
	if w.Control().P > 0.9 {
		t.Errorf("probe %v exceeded Algorithm 1's 0.9 cap", w.Control().P)
	}
}

// TestWTOPFloorsAtMinP pins the 1e-4 floor on the broadcast p: under
// sustained dead air the collapse escape drives pval down to the floor
// and the minus probe is broadcast at exactly it.
func TestWTOPFloorsAtMinP(t *testing.T) {
	w := NewWTOP(WTOPConfig{Scale: 1})
	for i := 0; i < 400; i++ {
		w.OnWindowEnd(0)
	}
	w.OnWindowEnd(0) // plus window: the next broadcast is the minus probe
	floor := math.Exp(math.Log(1e-4))
	if w.PVal() != floor || w.Control().P != floor {
		t.Errorf("pval %v, minus probe %v after dead air, want the floor %v", w.PVal(), w.Control().P, floor)
	}
}

// analyticThroughput builds a measurement function from the paper's
// Eq. (3) model plus relative Gaussian noise — the cleanest closed-loop
// test of wTOP-CSMA short of the full simulator.
func analyticThroughput(n int, noise float64, rng *rand.Rand) (measure func(p float64) float64, pstar float64, m model.PPersistent) {
	m = model.PPersistent{PHY: model.PaperPHY()}
	w := model.UnitWeights(n)
	pstar = m.OptimalP(w)
	measure = func(p float64) float64 {
		s := m.SystemThroughput(p, w)
		return s * (1 + noise*rng.NormFloat64())
	}
	return measure, pstar, m
}

func TestWTOPConvergesOnAnalyticModel(t *testing.T) {
	for _, n := range []int{10, 40} {
		rng := newNoise(int64(n))
		measure, pstar, m := analyticThroughput(n, 0.05, rng)
		w := NewWTOP(WTOPConfig{Scale: m.PHY.BitRate})
		for i := 0; i < 3000; i++ {
			w.OnWindowEnd(measure(w.Control().P))
		}
		// Converged throughput within a few percent of the optimum.
		// (pval itself can sit on a flat shoulder of the objective, so we
		// assert on S; the ±b_k probe bias keeps a small residual gap.)
		sOpt := m.SystemThroughput(pstar, model.UnitWeights(n))
		sGot := m.SystemThroughput(w.PVal(), model.UnitWeights(n))
		if sGot < 0.93*sOpt {
			t.Errorf("N=%d: S(pval)=%v < 95%% of S(p*)=%v (pval=%v, p*=%v)",
				n, sGot/1e6, sOpt/1e6, w.PVal(), pstar)
		}
	}
}

func TestTORAControlBlock(t *testing.T) {
	c := NewTORA(7)
	ctrl := c.Control()
	if ctrl.Scheme != frame.ControlTORA {
		t.Errorf("scheme = %v", ctrl.Scheme)
	}
	if ctrl.Stage != 0 {
		t.Errorf("initial stage = %d, want 0", ctrl.Stage)
	}
	if c.P0Val() != 0.5 || c.J() != 0 {
		t.Errorf("initial state (%v, %d), want (0.5, 0)", c.P0Val(), c.J())
	}
}

func TestTORAStageSwitchUp(t *testing.T) {
	// Feed measurements that always favour the minus probe: pval walks
	// down; at δl the stage must increment and pval re-centre at 0.5.
	c := NewTORA(7)
	for i := 0; i < 500 && c.J() == 0; i++ {
		c.OnWindowEnd(0) // plus window: bad
		c.OnWindowEnd(1) // minus window: good → gradient pushes p0 down
	}
	if c.J() != 1 {
		t.Fatalf("stage never incremented; p0 = %v", c.P0Val())
	}
	if c.P0Val() != 0.5 {
		t.Errorf("pval = %v after switch, want 0.5", c.P0Val())
	}
}

func TestTORAStageSwitchDownAndBoundary(t *testing.T) {
	c := NewTORA(7)
	c.j = 2
	// Favour the plus probe: pval walks up; stage must decrement at δh.
	for i := 0; i < 500 && c.J() == 2; i++ {
		c.OnWindowEnd(1)
		c.OnWindowEnd(0)
	}
	if c.J() != 1 {
		t.Fatalf("stage never decremented; p0 = %v", c.P0Val())
	}
	// Keep pushing: j reaches 0 and must stop there even at p0 ≈ 1.
	for i := 0; i < 2000; i++ {
		c.OnWindowEnd(1)
		c.OnWindowEnd(0)
	}
	if c.J() != 0 {
		t.Errorf("stage = %d, want boundary 0", c.J())
	}
	if c.P0Val() < 0.9 {
		t.Errorf("at the boundary p0 should pin high, got %v", c.P0Val())
	}
}

// TestTORASwitchesAtExactThresholds pins δl = 0.05 and δh = 0.95: an
// equal-measurement pair leaves p0 where Reset put it, so the stage
// walks exactly when p0 sits on a threshold and not one ulp inside it.
func TestTORASwitchesAtExactThresholds(t *testing.T) {
	for _, c := range []struct {
		p0    float64
		wantJ int
	}{
		{0.05, 2},
		{math.Nextafter(0.05, 1), 1},
		{0.95, 0},
		{math.Nextafter(0.95, 0), 1},
	} {
		tora := NewTORA(7)
		tora.j = 1
		tora.kw.Reset(c.p0)
		tora.OnWindowEnd(1)
		tora.OnWindowEnd(1)
		if tora.J() != c.wantJ {
			t.Errorf("p0 = %v: stage %d after an equal pair, want %d", c.p0, tora.J(), c.wantJ)
		}
	}
}

func TestTORAStageCapsAtMMinus1(t *testing.T) {
	c := NewTORA(3)
	for i := 0; i < 4000; i++ {
		c.OnWindowEnd(0)
		c.OnWindowEnd(1)
	}
	if c.J() != 2 {
		t.Errorf("stage = %d, want cap at M−1 = 2", c.J())
	}
}

func TestTORAConvergesOnAnalyticRandomReset(t *testing.T) {
	// Closed loop against the appendix fixed-point model: measurements
	// come from RandomReset throughput at the broadcast (j, p0). The
	// controller must reach a near-optimal operating point.
	rr := model.RandomReset{PHY: model.PaperPHY(), Backoff: model.PaperBackoff(), N: 20}
	rng := newNoise(77)
	c := NewTORA(rr.Backoff.M)
	for i := 0; i < 3000; i++ {
		ctrl := c.Control()
		s, err := rr.Throughput(int(ctrl.Stage), ctrl.P0)
		if err != nil {
			t.Fatal(err)
		}
		c.OnWindowEnd(s * (1 + 0.05*rng.NormFloat64()))
	}
	_, _, bestS := rr.OptimalJP(0.05)
	got, err := rr.Throughput(c.J(), c.P0Val())
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.93*bestS {
		t.Errorf("TORA settled at (j=%d, p0=%v) with S=%v Mbps < 93%% of best %v Mbps",
			c.J(), c.P0Val(), got/1e6, bestS/1e6)
	}
}

func TestTORAPanicsOnBadConfig(t *testing.T) {
	for _, m := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("M = %d accepted", m)
				}
			}()
			NewTORA(m)
		}()
	}
}

// Controllers must satisfy the shared interface.
var (
	_ Controller = (*WTOP)(nil)
	_ Controller = (*TORA)(nil)
)
