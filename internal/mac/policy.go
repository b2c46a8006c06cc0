// Package mac implements the contention-resolution policies of Section II
// as pure, simulator-independent state machines: the standard 802.11
// exponential backoff (DCF), p-persistent CSMA, the paper's RandomReset
// backoff and IdleSense's AIMD.
//
// A policy answers exactly one question — how many idle slots to wait
// before the next transmission attempt — and is notified of the outcome of
// each attempt and of AP control broadcasts. The event-driven simulator
// (package eventsim) and the slotted simulator (package slotsim) both
// drive these same implementations, so policy behaviour is tested once,
// here, independent of either engine.
package mac

import (
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/sim"
)

// Policy is a station's contention-resolution algorithm.
//
// The MAC engine calls NextBackoff after enqueueing a fresh transmission
// (and after every outcome notification) to learn how many idle slots the
// station must observe before attempting. OnSuccess/OnFailure report
// attempt outcomes. OnControl delivers the AP's broadcast control block
// from a decoded ACK or beacon.
//
// A policy must not retain the *sim.RNG it is handed beyond the call.
// Each engine owns its station generators as values inside the
// simulation: eventsim keeps them in the station records that Reset
// reseeds in place, slotsim in one dense slice that New allocates. A
// retained pointer therefore ends up on a reseeded or abandoned
// generator.
type Policy interface {
	// NextBackoff draws the number of idle slots to wait before the next
	// transmission attempt.
	NextBackoff(rng *sim.RNG) int
	// OnSuccess notes that the station's attempt was acknowledged.
	OnSuccess(rng *sim.RNG)
	// OnFailure notes that the attempt failed (no ACK).
	OnFailure(rng *sim.RNG)
	// OnControl delivers an AP control broadcast. Policies ignore blocks
	// for schemes other than their own.
	OnControl(ctrl frame.Control)
}

// AttemptReporter is implemented by policies whose current per-slot
// attempt probability is well-defined; the simulators expose it in
// diagnostics and convergence plots.
type AttemptReporter interface {
	// AttemptProbability returns the current per-slot attempt
	// probability implied by the policy state.
	AttemptProbability() float64
}

// Memoryless marks policies whose backoff is a fresh per-slot coin flip
// (p-persistent CSMA). For these the engine redraws the counter after
// every busy period instead of resuming the frozen residual: "transmit in
// a slot with probability p" applies to the first slot after a busy
// period too, whereas a frozen 802.11-style counter is conditioned ≥ 1
// there. Window-based policies (DCF, RandomReset, IdleSense) deliberately
// do NOT implement this — they freeze and resume like real 802.11.
type Memoryless interface {
	// BackoffMemoryless reports that counters may be redrawn at every
	// idle resumption without changing the policy's distribution.
	BackoffMemoryless() bool
}

// StandardDCF is the IEEE 802.11 exponential backoff: the contention
// window doubles per failure up to CWmax and resets to CWmin on success.
// The backoff counter is drawn uniformly from [0, CW−1].
type StandardDCF struct {
	cwMin, cwMax int
	stage        int
}

// NewStandardDCF returns the standard policy with the given window bounds.
func NewStandardDCF(cwMin, cwMax int) *StandardDCF {
	if cwMin < 1 || cwMax < cwMin {
		panic(fmt.Sprintf("mac: invalid CW bounds [%d, %d]", cwMin, cwMax))
	}
	return &StandardDCF{cwMin: cwMin, cwMax: cwMax}
}

// CW returns the current contention window.
func (d *StandardDCF) CW() int {
	cw := d.cwMin << uint(d.stage)
	if cw > d.cwMax {
		return d.cwMax
	}
	return cw
}

// NextBackoff implements Policy.
func (d *StandardDCF) NextBackoff(rng *sim.RNG) int { return rng.UniformWindow(d.CW()) }

// OnSuccess implements Policy: reset to stage 0.
func (d *StandardDCF) OnSuccess(*sim.RNG) { d.stage = 0 }

// OnFailure implements Policy: double the window up to CWmax.
func (d *StandardDCF) OnFailure(*sim.RNG) {
	if d.cwMin<<uint(d.stage+1) <= d.cwMax {
		d.stage++
	}
}

// OnControl implements Policy; the standard DCF has no tunables.
func (d *StandardDCF) OnControl(frame.Control) {}

// AttemptProbability implements AttemptReporter using the 2/(CW+1)
// approximation for a uniform [0, CW−1] draw.
func (d *StandardDCF) AttemptProbability() float64 { return 2 / float64(d.CW()+1) }

// PPersistent attempts transmission with probability p in each idle slot,
// which is equivalent to drawing a geometric backoff counter. Weighted
// stations apply Lemma 1's mapping to the broadcast control variable:
// p_t = w·p/(1 + (w−1)·p).
type PPersistent struct {
	// Weight is the station's fairness weight w_t (≥ 1 nominally, any
	// positive value accepted).
	Weight float64

	p float64 // station attempt probability p_t

	// logQ caches math.Log1p(-p) for the inverse-transform draw;
	// logQFor records the p it was computed for.
	logQ    float64
	logQFor float64
}

// minP floors a p-persistent station's attempt probability so it never
// starves (Algorithm 1 initialises stations at 0.1 before the first ACK).
const minP = 1e-5

// NewPPersistent returns a p-persistent policy with the given weight and
// initial attempt probability.
func NewPPersistent(weight, initial float64) *PPersistent {
	if weight <= 0 {
		panic(fmt.Sprintf("mac: non-positive weight %v", weight))
	}
	return &PPersistent{Weight: weight, p: clampProb(initial, minP)}
}

// SetAttemptProbability overrides the station attempt probability
// directly, bypassing the weight mapping — used by open-loop sweeps
// (Figs. 2 and 4).
func (p *PPersistent) SetAttemptProbability(v float64) { p.p = clampProb(v, minP) }

// AttemptProbability implements AttemptReporter.
func (p *PPersistent) AttemptProbability() float64 { return p.p }

// NextBackoff implements Policy: geometric with parameter p by inverse
// transform of one uniform (p is clamped to (0,1)). The constant ln(1-p)
// term is cached until p changes; the cached value is the exact
// math.Log1p(-p) double, so draws are bit-identical to rng.Geometric(p).
func (p *PPersistent) NextBackoff(rng *sim.RNG) int {
	if p.p != p.logQFor {
		p.logQFor = p.p
		p.logQ = math.Log1p(-p.p)
	}
	return sim.GeometricFromUniformLogQ(rng.Float64(), p.logQ)
}

// OnSuccess implements Policy; p-persistent state is outcome-independent.
func (p *PPersistent) OnSuccess(*sim.RNG) {}

// OnFailure implements Policy; p-persistent state is outcome-independent.
func (p *PPersistent) OnFailure(*sim.RNG) {}

// OnControl implements Policy: adopt the broadcast p through the weight
// mapping of Lemma 1.
func (p *PPersistent) OnControl(ctrl frame.Control) {
	if ctrl.Scheme != frame.ControlWTOP {
		return
	}
	mapped := p.Weight * ctrl.P / (1 + (p.Weight-1)*ctrl.P)
	p.p = clampProb(mapped, minP)
}

// BackoffMemoryless implements Memoryless: the geometric counter may be
// redrawn at any idle resumption (memorylessness of the geometric law).
func (p *PPersistent) BackoffMemoryless() bool { return true }

func clampProb(v, min float64) float64 {
	switch {
	case v < min:
		return min
	case v > 0.999:
		return 0.999
	default:
		return v
	}
}

// RandomReset performs standard exponential backoff on failure; on
// success it moves to stage j with probability p0, otherwise to a stage
// drawn uniformly from {j+1, …, m} (Definition 4). With p0 = 1, j = 0 it
// degenerates to the standard DCF.
type RandomReset struct {
	cwMin, m int

	j     int
	p0    float64
	stage int
}

// NewRandomReset returns the policy with reset parameters (j, p0).
func NewRandomReset(cwMin, m, j int, p0 float64) *RandomReset {
	if cwMin < 1 || m < 1 {
		panic(fmt.Sprintf("mac: invalid RandomReset params CWmin=%d m=%d", cwMin, m))
	}
	r := &RandomReset{cwMin: cwMin, m: m}
	r.SetReset(j, p0)
	return r
}

// SetReset updates the reset parameters, clamping them to valid ranges.
func (r *RandomReset) SetReset(j int, p0 float64) {
	if j < 0 {
		j = 0
	}
	if j > r.m-1 {
		j = r.m - 1
	}
	if p0 < 0 {
		p0 = 0
	}
	if p0 > 1 {
		p0 = 1
	}
	r.j, r.p0 = j, p0
}

// CW returns the current contention window 2^stage · CWmin.
func (r *RandomReset) CW() int { return r.cwMin << uint(r.stage) }

// NextBackoff implements Policy.
func (r *RandomReset) NextBackoff(rng *sim.RNG) int { return rng.UniformWindow(r.CW()) }

// OnSuccess implements Policy: apply the reset distribution. SetReset
// keeps j ≤ m−1, so {j+1, …, m} is never empty.
func (r *RandomReset) OnSuccess(rng *sim.RNG) {
	if rng.Bernoulli(r.p0) {
		r.stage = r.j
		return
	}
	r.stage = r.j + 1 + rng.Intn(r.m-r.j)
}

// OnFailure implements Policy: double up to stage M.
func (r *RandomReset) OnFailure(*sim.RNG) {
	if r.stage < r.m {
		r.stage++
	}
}

// OnControl implements Policy: adopt the broadcast (p0, j).
func (r *RandomReset) OnControl(ctrl frame.Control) {
	if ctrl.Scheme != frame.ControlTORA {
		return
	}
	r.SetReset(int(ctrl.Stage), ctrl.P0)
}

// AttemptProbability implements AttemptReporter with the stage-wise
// 2/CW approximation used by the paper's analysis (κ_i).
func (r *RandomReset) AttemptProbability() float64 { return 2 / float64(r.CW()) }
