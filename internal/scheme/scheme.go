// Package scheme is the single scheme→policy mapping in the repository:
// it names the paper's four channel-access schemes and constructs their
// per-station contention policies plus the AP-side controller with the
// paper's parameters. Within the module, Build is called only by
// scenario.EngineConfigOn, the engine assembly the wlan facade, the
// experiment harness and the scenario runner share, so a scheme behaves
// identically wherever it is invoked. It is a leaf package
// (core/mac/model only), so engine-facing consumers do not drag in the
// declarative scenario layer.
package scheme

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/model"
)

// The paper's four schemes, by their reporting names.
const (
	DCF       = "802.11"
	IdleSense = "IdleSense"
	WTOP      = "wTOP-CSMA"
	TORA      = "TORA-CSMA"
)

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
			policies[i] = mac.NewIdleSense(mac.IdleSenseConfig{})
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
		controller = core.NewTORA(core.TORAConfig{M: back.M, Scale: phy.BitRate})
	default:
		return nil, nil, fmt.Errorf("scheme: unknown scheme %q (want %s, %s, %s or %s)",
			scheme, DCF, IdleSense, WTOP, TORA)
	}
	return policies, controller, nil
}
