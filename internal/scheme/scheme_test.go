package scheme

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mac"
)

// Build must construct the right policy type and controller for every
// named scheme, one policy per station.
func TestBuildAllSchemes(t *testing.T) {
	const n = 5
	cases := []struct {
		scheme        string
		wantPolicy    string
		hasController bool
	}{
		{DCF, "*mac.StandardDCF", false},
		{IdleSense, "*mac.IdleSense", false},
		{WTOP, "*mac.PPersistent", true},
		{TORA, "*mac.RandomReset", true},
		{SlowDecrease, "*mac.SlowDecrease", false},
		{EstimateN, "*mac.EstimateN", false},
	}
	for _, tc := range cases {
		t.Run(tc.scheme, func(t *testing.T) {
			policies, controller, err := Build(tc.scheme, nil, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(policies) != n {
				t.Fatalf("%d policies for %d stations", len(policies), n)
			}
			for i, p := range policies {
				switch tc.wantPolicy {
				case "*mac.StandardDCF":
					if _, ok := p.(*mac.StandardDCF); !ok {
						t.Errorf("policy %d is %T", i, p)
					}
				case "*mac.IdleSense":
					if _, ok := p.(*mac.IdleSense); !ok {
						t.Errorf("policy %d is %T", i, p)
					}
				case "*mac.PPersistent":
					if _, ok := p.(*mac.PPersistent); !ok {
						t.Errorf("policy %d is %T", i, p)
					}
				case "*mac.RandomReset":
					if _, ok := p.(*mac.RandomReset); !ok {
						t.Errorf("policy %d is %T", i, p)
					}
				case "*mac.SlowDecrease":
					if _, ok := p.(*mac.SlowDecrease); !ok {
						t.Errorf("policy %d is %T", i, p)
					}
				case "*mac.EstimateN":
					if _, ok := p.(*mac.EstimateN); !ok {
						t.Errorf("policy %d is %T", i, p)
					}
				}
			}
			if tc.hasController != (controller != nil) {
				t.Errorf("controller = %v, want present=%v", controller, tc.hasController)
			}
			if err := Check(tc.scheme); err != nil {
				t.Errorf("Check: %v", err)
			}
		})
	}
	if _, c, err := Build(WTOP, nil, 2); err != nil {
		t.Fatal(err)
	} else if _, ok := c.(*core.WTOP); !ok {
		t.Errorf("wTOP controller is %T", c)
	}
	if _, c, err := Build(TORA, nil, 2); err != nil {
		t.Fatal(err)
	} else if _, ok := c.(*core.TORA); !ok {
		t.Errorf("TORA controller is %T", c)
	}
}

// Non-nil weights must reach the per-station p-persistent policies in
// order; nil weights mean unit weights.
func TestBuildWeightPropagation(t *testing.T) {
	weights := []float64{1, 2, 3.5}
	policies, _, err := Build(WTOP, weights, len(weights))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range policies {
		pp, ok := p.(*mac.PPersistent)
		if !ok {
			t.Fatalf("policy %d is %T", i, p)
		}
		if pp.Weight != weights[i] {
			t.Errorf("policy %d weight %v, want %v", i, pp.Weight, weights[i])
		}
	}
	unit, _, err := Build(WTOP, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range unit {
		if w := p.(*mac.PPersistent).Weight; w != 1 {
			t.Errorf("nil-weight policy %d weight %v, want 1", i, w)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, _, err := Build("CSMA/CD", nil, 4); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Errorf("unknown scheme: %v", err)
	}
	// The error must name the valid schemes so a typo is self-repairing.
	if _, _, err := Build("802.11b", nil, 4); err == nil || !strings.Contains(err.Error(), WTOP) || !strings.Contains(err.Error(), EstimateN) {
		t.Errorf("error does not list valid schemes: %v", err)
	}
	if err := Check(""); err == nil {
		t.Error("Check accepted an empty name")
	}
	if _, _, err := Build(WTOP, []float64{1, 2}, 4); err == nil {
		t.Error("bad weight length accepted")
	}
	if _, _, err := Build(DCF, []float64{1, 1, 1, 1}, 4); err == nil {
		t.Error("weights accepted for an unweighted scheme")
	}
	if _, _, err := Build(TORA, []float64{1, 1}, 2); err == nil {
		t.Error("weights accepted for TORA")
	}
	// Zero stations is degenerate but must not panic.
	policies, _, err := Build(DCF, nil, 0)
	if err != nil {
		t.Fatalf("n=0: %v", err)
	}
	if len(policies) != 0 {
		t.Errorf("n=0 built %d policies", len(policies))
	}
}
