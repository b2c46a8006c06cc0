// Package core implements the paper's contribution: Kiefer–Wolfowitz
// stochastic approximation applied to online MAC tuning, packaged as the
// two AP-side controllers of Algorithms 1 and 2 — wTOP-CSMA (tunes the
// p-persistent control variable p) and TORA-CSMA (tunes the RandomReset
// reset probability p0 and stage j).
//
// The controllers are event-free and engine-agnostic: the surrounding
// system feeds them throughput measurements per UPDATE_PERIOD window and
// broadcasts the control values they emit. That makes the same code
// testable against synthetic objectives (convergence proofs in the test
// suite), the analytic model, and both simulators.
package core

import (
	"fmt"
	"math"
)

// PowerGains is the Kiefer–Wolfowitz gain schedule a_k = A0/k^AExp,
// b_k = B0/k^BExp. The classic convergence conditions require b_k → 0,
// Σ a_k = ∞, Σ a_k·b_k < ∞ and Σ (a_k/b_k)² < ∞; the paper's a_k = 1/k,
// b_k = 1/k^(1/3) satisfies all four.
type PowerGains struct {
	A0, AExp float64
	B0, BExp float64
}

// PaperGains returns the schedule used in Algorithms 1 and 2.
func PaperGains() PowerGains {
	return PowerGains{A0: 1, AExp: 1, B0: 1, BExp: 1.0 / 3}
}

// A returns the step gain a_k for iteration k ≥ 1.
func (g PowerGains) A(k int) float64 { return g.A0 / math.Pow(float64(k), g.AExp) }

// B returns the probe offset b_k for iteration k ≥ 1.
func (g PowerGains) B(k int) float64 { return g.B0 / math.Pow(float64(k), g.BExp) }

// Phase tells which probe window the optimiser is in.
type Phase int

// Probe phases: the optimiser alternates a "plus" window at x+b_k with a
// "minus" window at x−b_k, then applies one gradient step.
const (
	PhasePlus Phase = iota
	PhaseMinus
)

// String names the phase.
func (p Phase) String() string {
	if p == PhasePlus {
		return "plus"
	}
	return "minus"
}

// KieferWolfowitz is the finite-difference stochastic approximation
// optimiser of Section III-B, maximising an unknown function S(x) from
// noisy paired measurements:
//
//	x_{k+1} = x_k + a_k · (y_plus − y_minus) / (m · b_k)
//
// where y_plus and y_minus estimate S(x_k + b_k) and S(x_k − b_k) and m
// is their mean. The iterate is projected onto [lo, hi] after every
// update, matching the clamping in Algorithm 1 (p kept within [0, 0.9]).
//
// Dividing by m makes the update estimate d(ln S)/dx rather than dS/dx
// (the paper divides by nothing and measures in bytes per period). The
// step is then scale-free, large on the exponential collision-collapse
// tail where S decays by orders of magnitude, and small near the
// optimum. Since ln is a strictly monotone transform, quasi-concavity —
// and hence the Kiefer–Wolfowitz convergence point — is unchanged. The
// gradient magnitude is bounded by 2/b_k because |y⁺−y⁻| ≤ y⁺+y⁻ for
// non-negative measurements.
type KieferWolfowitz struct {
	gains  PowerGains
	lo, hi float64 // projection interval of the iterate and the probes

	x     float64
	k     int
	phase Phase
	yPlus float64
}

// NewKieferWolfowitz returns an optimiser starting at x0 with the given
// projection interval. It starts at iteration k = 2 as Algorithm 1 does
// (avoiding the overly aggressive a_1 = 1, b_1 = 1 first step).
func NewKieferWolfowitz(x0, lo, hi float64, gains PowerGains) *KieferWolfowitz {
	if lo >= hi {
		panic(fmt.Sprintf("core: projection interval [%v, %v] empty", lo, hi))
	}
	if x0 < lo || x0 > hi {
		panic(fmt.Sprintf("core: x0=%v outside [%v, %v]", x0, lo, hi))
	}
	return &KieferWolfowitz{gains: gains, lo: lo, hi: hi, x: x0, k: 2}
}

// X returns the current iterate x_k (the candidate optimum).
func (kw *KieferWolfowitz) X() float64 { return kw.x }

// K returns the current iteration index.
func (kw *KieferWolfowitz) K() int { return kw.k }

// Phase returns which probe window the optimiser expects a measurement
// for next.
func (kw *KieferWolfowitz) Phase() Phase { return kw.phase }

// Probe returns the control value to apply during the upcoming
// measurement window: x + b_k in the plus phase, x − b_k in the minus
// phase, projected onto [lo, hi].
func (kw *KieferWolfowitz) Probe() float64 {
	b := kw.gains.B(kw.k)
	if kw.phase == PhasePlus {
		return kw.clamp(kw.x + b)
	}
	return kw.clamp(kw.x - b)
}

// Measure feeds the throughput estimate observed during the current probe
// window and advances the phase. On completing a minus window it applies
// the Kiefer–Wolfowitz update and returns true; the new iterate is then
// available from X.
func (kw *KieferWolfowitz) Measure(y float64) (updated bool) {
	if kw.phase == PhasePlus {
		kw.yPlus = y
		kw.phase = PhaseMinus
		return false
	}
	den := (kw.yPlus + y) / 2
	if den <= 0 {
		den = 1 // degenerate pair (both zero): gradient carries no signal
	}
	a, b := kw.gains.A(kw.k), kw.gains.B(kw.k)
	grad := (kw.yPlus - y) / den / b
	kw.x = kw.clamp(kw.x + a*grad)
	kw.k++
	kw.phase = PhasePlus
	return true
}

// Reset re-centres the iterate (used by TORA-CSMA's stage switches, which
// reset pval to 0.5) without restarting the gain schedule.
func (kw *KieferWolfowitz) Reset(x0 float64) {
	kw.x = kw.clamp(x0)
	kw.phase = PhasePlus
}

// RewindIteration steps the gain schedule back by one iteration (never
// below the starting index 2). Algorithm 2 increments k only on ordinary
// updates: a stage switch re-centres pval *without* consuming an
// iteration, which this method expresses on top of Measure's unconditional
// advance.
func (kw *KieferWolfowitz) RewindIteration() {
	if kw.k > 2 {
		kw.k--
	}
}

func (kw *KieferWolfowitz) clamp(x float64) float64 {
	switch {
	case x < kw.lo:
		return kw.lo
	case x > kw.hi:
		return kw.hi
	default:
		return x
	}
}
