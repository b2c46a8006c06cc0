// Package scheme is the single scheme→policy mapping in the repository:
// it names the paper's four channel-access schemes and two related-work
// baselines, constructs their per-station contention policies plus the
// AP-side controller with the paper's parameters, and owns the rules a
// scheme's name, weights and fixed control value must meet. Within the
// module, Build is called only by scenario.EngineConfigOn, the engine
// assembly the wlan facade, the experiment harness and the scenario
// runner share, so a scheme behaves identically wherever it is invoked.
// It is a leaf package (core/mac/model only), so engine-facing
// consumers do not drag in the declarative scenario layer.
package scheme

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/model"
)

// The paper's four schemes, by their reporting names, and the two
// related-work baselines of the policy ladder: SlowDecrease (δ = 0.5)
// and EstimateN (a window of 10 idle-slot samples).
const (
	DCF          = "802.11"
	IdleSense    = "IdleSense"
	WTOP         = "wTOP-CSMA"
	TORA         = "TORA-CSMA"
	SlowDecrease = "SlowDecrease"
	EstimateN    = "EstimateN"
)

// names lists every scheme Build constructs, in the order errors name
// them.
var names = []string{DCF, IdleSense, WTOP, TORA, SlowDecrease, EstimateN}

// Check reports whether Build constructs the named scheme.
func Check(scheme string) error {
	if !slices.Contains(names, scheme) {
		return fmt.Errorf("scheme: unknown scheme %q (want one of %s)", scheme, strings.Join(names, ", "))
	}
	return nil
}

// CheckControl reports whether control suits the named scheme: nil (the
// scheme's controller tunes it), or a fixed value of the control
// variable of wTOP-CSMA, the attempt probability p ∈ (0, 1], or of
// TORA-CSMA, the reset probability p0 ∈ [0, 1].
func CheckControl(scheme string, control *float64) error {
	switch {
	case control == nil:
		return nil
	case scheme != WTOP && scheme != TORA:
		return fmt.Errorf("scheme: a fixed control needs the %s or %s scheme", WTOP, TORA)
	case !(*control >= 0 && *control <= 1), scheme == WTOP && *control == 0:
		return fmt.Errorf("scheme: %s control %v outside its range: p ∈ (0, 1], p0 ∈ [0, 1]", scheme, *control)
	}
	return nil
}

// CheckWeights reports whether weights suit n stations of the named
// scheme: nil (unit weights), or one positive finite weight per station
// under wTOP-CSMA, the only weighted scheme.
func CheckWeights(scheme string, weights []float64, n int) error {
	switch {
	case weights == nil:
		return nil
	case len(weights) != n:
		return fmt.Errorf("scheme: %d weights for %d stations", len(weights), n)
	case scheme != WTOP:
		return fmt.Errorf("scheme: weights require the %s scheme", WTOP)
	}
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			return fmt.Errorf("scheme: weight[%d] = %v must be a positive finite number", i, w)
		}
	}
	return nil
}

// Build constructs one contention policy per station plus the AP
// controller for a named scheme. weights may be nil (unit weights);
// otherwise they must pass CheckWeights.
func Build(scheme string, weights []float64, n int) ([]mac.Policy, core.Controller, error) {
	if err := CheckWeights(scheme, weights, n); err != nil {
		return nil, nil, err
	}
	phy := model.PaperPHY()
	back := model.PaperBackoff()
	policies := make([]mac.Policy, n)
	var controller core.Controller
	switch scheme {
	case DCF:
		for i := range policies {
			policies[i] = mac.NewStandardDCF(back.CWMin, back.CWMax())
		}
	case IdleSense:
		for i := range policies {
			policies[i] = mac.NewIdleSense()
		}
	case WTOP:
		for i := range policies {
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			policies[i] = mac.NewPPersistent(w, 0.1)
		}
		controller = core.NewWTOP(core.WTOPConfig{Scale: phy.BitRate})
	case TORA:
		for i := range policies {
			policies[i] = mac.NewRandomReset(back.CWMin, back.M, 0, 1)
		}
		controller = core.NewTORA(back.M)
	case SlowDecrease:
		for i := range policies {
			policies[i] = mac.NewSlowDecrease(back.CWMin, back.CWMax())
		}
	case EstimateN:
		for i := range policies {
			policies[i] = mac.NewEstimateN(phy.TcSlots())
		}
	default:
		return nil, nil, Check(scheme)
	}
	return policies, controller, nil
}
