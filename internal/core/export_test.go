package core

import (
	"fmt"
	"math"
)

// Test-only views of controller state, and the schedule conditions the
// gain tests check.

// PVal returns the current candidate optimum pval (distinct from the
// probe value, which carries the ±b_k perturbation).
func (w *WTOP) PVal() float64 { return math.Exp(w.kw.X()) }

// J returns the current reset stage j.
func (t *TORA) J() int { return t.j }

// P0Val returns the current candidate optimum reset probability.
func (t *TORA) P0Val() float64 { return t.kw.X() }

// Validate checks the Kiefer–Wolfowitz summability conditions for a
// polynomial schedule:
//
//	Σ a_k = ∞        ⇔ AExp ≤ 1
//	b_k → 0          ⇔ BExp > 0
//	Σ a_k·b_k < ∞    ⇔ AExp + BExp > 1
//	Σ (a_k/b_k)² < ∞ ⇔ 2·(AExp − BExp) > 1
func (g PowerGains) Validate() error {
	switch {
	case g.A0 <= 0 || g.B0 <= 0:
		return fmt.Errorf("core: gain scales A0=%v B0=%v must be positive", g.A0, g.B0)
	case g.AExp > 1:
		return fmt.Errorf("core: AExp=%v > 1 makes Σ a_k finite", g.AExp)
	case g.BExp <= 0:
		return fmt.Errorf("core: BExp=%v ≤ 0 keeps b_k from vanishing", g.BExp)
	case g.AExp+g.BExp <= 1:
		return fmt.Errorf("core: AExp+BExp=%v ≤ 1 makes Σ a_k·b_k diverge", g.AExp+g.BExp)
	case 2*(g.AExp-g.BExp) <= 1:
		return fmt.Errorf("core: 2(AExp−BExp)=%v ≤ 1 makes Σ (a_k/b_k)² diverge", 2*(g.AExp-g.BExp))
	}
	return nil
}
