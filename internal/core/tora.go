package core

import (
	"fmt"

	"repro/internal/frame"
)

// Algorithm 2's constants: pval starts at and re-centres to p0Centre on
// every stage switch, and the stage walks when the tuned p0 reaches the
// thresholds δl ≈ 0 (deltaLow) or δh ≈ 1 (deltaHigh).
const (
	p0Centre  = 0.5
	deltaLow  = 0.05
	deltaHigh = 0.95
)

// TORA is the TORA-CSMA access-point controller: Kiefer–Wolfowitz on the
// RandomReset reset probability p0 for a fixed stage j, plus the stage
// walk of Algorithm 2 — when the tuned p0 pins at ≈0 the optimum lies at
// a slower reset (j+1); when it pins at ≈1 the optimum lies at a more
// aggressive reset (j−1). On a stage switch pval re-centres at 0.5 and,
// exactly as in Algorithm 2, the iteration counter k is *not* advanced.
type TORA struct {
	kw *KieferWolfowitz
	m  int // highest backoff stage (CWmax = 2^m·CWmin); j stays in {0..m−1}
	j  int
}

// NewTORA builds the controller for stations whose highest backoff
// stage is m, starting at stage j = 0 with pval 0.5.
func NewTORA(m int) *TORA {
	if m < 1 {
		panic(fmt.Sprintf("core: TORA needs M ≥ 1, got %d", m))
	}
	return &TORA{kw: NewKieferWolfowitz(p0Centre, 0, 1, PaperGains()), m: m}
}

// Control implements Controller: broadcast the probe p0 and the stage j.
func (t *TORA) Control() frame.Control {
	return frame.Control{
		Scheme: frame.ControlTORA,
		P0:     t.kw.Probe(),
		Stage:  uint8(t.j),
	}
}

// OnWindowEnd implements Controller: feed the KW update and, after each
// completed plus/minus pair, apply Algorithm 2's stage-switch rule.
func (t *TORA) OnWindowEnd(throughput float64) {
	if !t.kw.Measure(throughput) {
		return // only the plus window consumed; no update yet
	}
	switch {
	case t.kw.X() <= deltaLow && t.j < t.m-1:
		t.j++
	case t.kw.X() >= deltaHigh && t.j > 0:
		t.j--
	default:
		return
	}
	t.kw.Reset(p0Centre)
	t.kw.RewindIteration()
}
