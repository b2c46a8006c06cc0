package mac

import (
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/sim"
)

// SlowDecrease is the slow contention-window decrease policy of Ni et
// al. (PIMRC 2003), one of the improvements the paper's related-work
// section compares against: on failure the window doubles as usual, but
// on success it shrinks by a gentle factor instead of snapping back to
// CWmin. Stations stay less aggressive right after a success, improving
// on the standard DCF without reaching the optimum (the paper's point:
// the throughput still degrades with N).
type SlowDecrease struct {
	cwMin, cwMax int
	cw           float64
}

// slowDecreaseDelta is the multiplicative decrease applied to CW on
// success: the published window halving.
const slowDecreaseDelta = 0.5

// NewSlowDecrease returns the policy with the given window bounds.
func NewSlowDecrease(cwMin, cwMax int) *SlowDecrease {
	if cwMin < 1 || cwMax < cwMin {
		panic(fmt.Sprintf("mac: invalid CW bounds [%d, %d]", cwMin, cwMax))
	}
	return &SlowDecrease{cwMin: cwMin, cwMax: cwMax, cw: float64(cwMin)}
}

// CW returns the current contention window.
func (sd *SlowDecrease) CW() int { return int(math.Round(sd.cw)) }

// NextBackoff implements Policy.
func (sd *SlowDecrease) NextBackoff(rng *sim.RNG) int { return rng.UniformWindow(sd.CW()) }

// OnSuccess implements Policy: multiplicative slow decrease.
func (sd *SlowDecrease) OnSuccess(*sim.RNG) {
	sd.cw = math.Max(float64(sd.cwMin), sd.cw*slowDecreaseDelta)
}

// OnFailure implements Policy: standard doubling.
func (sd *SlowDecrease) OnFailure(*sim.RNG) {
	sd.cw = math.Min(float64(sd.cwMax), sd.cw*2)
}

// OnControl implements Policy; the scheme is fully distributed.
func (sd *SlowDecrease) OnControl(frame.Control) {}

// AttemptProbability implements AttemptReporter.
func (sd *SlowDecrease) AttemptProbability() float64 { return 2 / (sd.cw + 1) }

// EstimateN is the model-based adaptive scheme of Bianchi et al.
// (PIMRC 1996) and Calì et al.: estimate the number of contenders from
// the observed idle-slot statistics, then set the attempt probability to
// the closed-form optimum p* ≈ 1/(N̂·sqrt(T*c/2)) (Eq. 8 of the paper).
//
// It is the canonical "estimate then optimise" design the paper argues
// against: superb in the fully connected network its model assumes,
// wrong under hidden nodes, where the observed idle statistics no longer
// identify N.
type EstimateN struct {
	// tcStar is the collision duration in slot units (T*c), the only
	// PHY constant the closed form needs.
	tcStar float64

	p        float64
	idleSum  float64
	observed int
	nHat     float64
}

const (
	// estimateWindow is the number of observed transmissions per
	// estimate.
	estimateWindow = 10
	// estimateMaxN caps the estimate to keep p* bounded away from zero.
	estimateMaxN = 1000
)

// NewEstimateN returns the policy for the given T*c.
func NewEstimateN(tcStar float64) *EstimateN {
	if tcStar <= 1 {
		panic(fmt.Sprintf("mac: T*c %v must exceed 1 slot", tcStar))
	}
	return &EstimateN{tcStar: tcStar, p: 0.05, nHat: 2}
}

// ObserveTransmission implements MediumObserver: fold one busy period
// preceded by idleSlots idle slots into the estimator. With every
// station using attempt probability p, the mean idle run is
// (1−q)/q, q = 1−(1−p)^N, so N̂ = ln(q̂·(1−p)) / ... solved from
// (1−p)^N = idle/(idle+1).
func (e *EstimateN) ObserveTransmission(idleSlots float64) {
	e.idleSum += idleSlots
	e.observed++
	if e.observed < estimateWindow {
		return
	}
	meanIdle := e.idleSum / float64(e.observed)
	e.idleSum, e.observed = 0, 0
	// P(idle slot) = meanIdle/(meanIdle+1) = (1−p)^N.
	pi := meanIdle / (meanIdle + 1)
	if pi <= 0 || pi >= 1 {
		return
	}
	n := math.Log(pi) / math.Log(1-e.p)
	if n < 1 {
		n = 1
	}
	if n > estimateMaxN {
		n = estimateMaxN
	}
	// Exponential smoothing keeps the estimate stable across windows.
	e.nHat = 0.8*e.nHat + 0.2*n
	e.p = 1 / (e.nHat * math.Sqrt(e.tcStar/2))
	if e.p > 0.5 {
		e.p = 0.5
	}
}

// NextBackoff implements Policy: geometric at the estimated optimum.
func (e *EstimateN) NextBackoff(rng *sim.RNG) int { return rng.Geometric(e.p) }

// OnSuccess implements Policy.
func (e *EstimateN) OnSuccess(*sim.RNG) {}

// OnFailure implements Policy.
func (e *EstimateN) OnFailure(*sim.RNG) {}

// OnControl implements Policy; the scheme is fully distributed.
func (e *EstimateN) OnControl(frame.Control) {}

// AttemptProbability implements AttemptReporter.
func (e *EstimateN) AttemptProbability() float64 { return e.p }

// BackoffMemoryless implements Memoryless: the geometric draw carries no
// history.
func (e *EstimateN) BackoffMemoryless() bool { return true }
