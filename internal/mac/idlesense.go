package mac

import (
	"math"

	"repro/internal/frame"
	"repro/internal/sim"
)

// MediumObserver is implemented by policies that adapt based on observed
// channel activity rather than own-transmission outcomes. The simulation
// engine calls ObserveTransmission each time the station senses a busy
// period begin, passing the number of idle slots the station observed
// since the previous busy period.
type MediumObserver interface {
	ObserveTransmission(idleSlots float64)
}

// IdleSense is the Heusse et al. (SIGCOMM 2005) algorithm, the paper's
// strongest fully-connected baseline. Every station measures n_i, the
// mean number of idle slots between consecutive transmissions on the
// medium, over idleMaxTrans observed transmissions, and drives it to a
// fixed target by AIMD on its contention window:
//
//	n_i ≥ target ⇒ CW ← α·CW   (channel too idle: be more aggressive)
//	n_i < target ⇒ CW ← CW + ε (too many collisions: back off)
//
// The paper's Section VI uses target = 3.1 idle slots per transmission,
// and its Table III shows precisely why a fixed target fails with hidden
// nodes: the optimal value becomes configuration-dependent.
type IdleSense struct {
	cw       float64
	idleSum  float64
	observed int
}

// IdleSense's published constants: the target n_i (3.1, per the paper),
// α = 1/1.0666, ε = 6.0, 5 transmissions per estimation window, and the
// bounds of the continuous contention window.
const (
	idleTarget   = 3.1
	idleAlpha    = 1 / 1.0666
	idleEpsilon  = 6.0
	idleMaxTrans = 5
	idleCWMin    = 4
	idleCWMax    = 4096
)

// NewIdleSense returns an IdleSense policy at a neutral starting window
// of 64; AIMD converges from anywhere.
func NewIdleSense() *IdleSense { return &IdleSense{cw: 64} }

// ObserveTransmission implements MediumObserver: fold in one observed
// busy period preceded by idleSlots idle slots, and run the AIMD update
// once idleMaxTrans observations have accumulated.
func (is *IdleSense) ObserveTransmission(idleSlots float64) {
	is.idleSum += idleSlots
	is.observed++
	if is.observed < idleMaxTrans {
		return
	}
	ni := is.idleSum / float64(is.observed)
	is.idleSum, is.observed = 0, 0
	if ni >= idleTarget {
		is.cw *= idleAlpha
	} else {
		is.cw += idleEpsilon
	}
	is.cw = math.Min(math.Max(is.cw, idleCWMin), idleCWMax)
}

// NextBackoff implements Policy: uniform over the current window.
func (is *IdleSense) NextBackoff(rng *sim.RNG) int {
	return rng.UniformWindow(int(math.Round(is.cw)))
}

// OnSuccess implements Policy. IdleSense does not react to outcomes; its
// feedback loop runs entirely on medium observations.
func (is *IdleSense) OnSuccess(*sim.RNG) {}

// OnFailure implements Policy.
func (is *IdleSense) OnFailure(*sim.RNG) {}

// OnControl implements Policy; IdleSense is fully distributed.
func (is *IdleSense) OnControl(frame.Control) {}

// AttemptProbability implements AttemptReporter.
func (is *IdleSense) AttemptProbability() float64 { return 2 / (is.cw + 1) }
