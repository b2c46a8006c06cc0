package core

import (
	"math"

	"repro/internal/frame"
)

// Controller is the AP-side tuning loop shared by wTOP-CSMA and
// TORA-CSMA. The AP measures throughput over consecutive UPDATE_PERIOD
// windows and calls OnWindowEnd with each estimate; Control returns the
// values to broadcast (in ACKs or beacons) for the *next* window.
type Controller interface {
	// Control returns the control block to broadcast right now.
	Control() frame.Control
	// OnWindowEnd feeds the throughput (bits/second) measured over the
	// window that just closed.
	OnWindowEnd(throughput float64)
}

// The broadcast p stays within [minP, maxP]. Algorithm 1 clamps to
// [0, 0.9]; the floor is a small ε > 0 so stations never freeze.
const (
	minP = 1e-4
	maxP = 0.9
)

// WTOPConfig parameterises the wTOP-CSMA controller of Algorithm 1.
// Zero-valued fields assume the defaults described below.
type WTOPConfig struct {
	// InitialP is the starting pval (0.5, as in Algorithm 1).
	InitialP float64
	// Gains is the Kiefer–Wolfowitz schedule (a_k = 1/k, b_k = k^(−1/3)).
	Gains PowerGains
	// Scale normalises throughput measurements; set it to the channel
	// bit rate so measured values lie in [0, 1]. Zero means 1.
	Scale float64
}

// WTOP is the wTOP-CSMA access-point controller: Kiefer–Wolfowitz on the
// common control variable p, broadcast to stations which then apply their
// weight mapping locally (Lemma 1). The AP needs no knowledge of the
// stations' weights — the property the paper highlights.
//
// The iteration runs on ln p rather than on p as the paper's pseudo-code
// is written: the optimal p scales as Θ(1/N) (Eq. 8), so a fixed
// additive probe offset b_k spans many octaves of p for large N, while a
// multiplicative probe keeps the finite-difference window matched to the
// curvature of S at every scale. The paper's own convergence plots
// (Figs. 2, 4, 9) are drawn against log p for the same reason.
// Quasi-concavity and the KW regularity conditions survive the monotone
// reparametrisation, so Theorem 2's guarantee carries over.
type WTOP struct {
	kw       *KieferWolfowitz // iterate x = ln p
	scale    float64
	lastPlus float64
}

// NewWTOP builds the controller, applying the paper's defaults for any
// zero config fields.
func NewWTOP(cfg WTOPConfig) *WTOP {
	if cfg.InitialP == 0 {
		cfg.InitialP = 0.5
	}
	if cfg.Gains == (PowerGains{}) {
		cfg.Gains = PaperGains()
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	return &WTOP{
		kw:    NewKieferWolfowitz(math.Log(cfg.InitialP), math.Log(minP), math.Log(maxP), cfg.Gains),
		scale: cfg.Scale,
	}
}

// Control implements Controller: broadcast the current probe value of p.
func (w *WTOP) Control() frame.Control {
	return frame.Control{Scheme: frame.ControlWTOP, P: math.Exp(w.kw.Probe())}
}

// deadThreshold is the normalised throughput below which a measurement
// window counts as "dead air": less than 0.1% channel utilisation.
const deadThreshold = 1e-3

// OnWindowEnd implements Controller.
//
// Beyond the plain Kiefer–Wolfowitz update it applies a collapse-escape
// rule: when *both* windows of a probe pair measure essentially zero
// throughput, the channel is in collision collapse and the local gradient
// carries no information, so the iterate drifts one probe-width toward
// smaller p. The rule is sound because the saturated system always has
// S(minP) > 0 — dead air at the current probes can only mean p is far too
// high. (In the paper's ns-3 runs residual measurement noise performs
// this escape implicitly; making it explicit keeps convergence
// deterministic for any starting point.)
func (w *WTOP) OnWindowEnd(throughput float64) {
	if w.kw.Phase() == PhasePlus {
		w.lastPlus = throughput
		w.kw.Measure(throughput)
		return
	}
	bothDead := w.lastPlus/w.scale < deadThreshold && throughput/w.scale < deadThreshold
	w.kw.Measure(throughput)
	if bothDead {
		w.kw.Reset(w.kw.X() - w.kw.gains.B(w.kw.K()))
	}
}
