package slotsim

import (
	"math"
	"testing"

	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
)

// TestBianchiAgreementLargeN validates the newly opened scale tier — no
// goldens exist above the paper's few hundred stations — against the
// closed forms in internal/model/bianchi.go. Three regime choices make
// the comparison meaningful at this scale:
//
// Windows scale with the population. With the paper's fixed 8–1024
// window a 100k-station slot would see ~200 simultaneous attackers and
// a success probability near e⁻²⁰⁰, so any fixed-small-window
// comparison degenerates to 0 ≈ 0. Each case instead keeps the
// aggregate attempt rate of order one: 4k and 16k run doubling windows
// (CWmin = n/4, three stages), exercising the genuine coupled fixed
// point τ = τ(c); 100k runs a single fixed window W = n (M = 0), where
// the closed-form attempt rate is exact and the residual isolates the
// engine's slot accounting. Window (non-memoryless) policies also keep
// the busy-period resume pass empty, which is what makes a 100k run
// take seconds instead of minutes.
//
// The yardstick is FrozenThroughput, not plain Bianchi. The engine
// implements true 802.11 freeze/resume (a busy period consumes no
// backoff decrement for waiting stations), while Bianchi's chain spends
// one counter tick per busy period. The paper's memoryless policies
// cannot tell the two apart — which is why the divergence stayed
// invisible below the old 512-station cap — but population-scaled
// windows span many busy periods and the clocks drift ~4% apart
// (asserted below so the gap stays documented, not forgotten).
//
// Warm-up is discarded. Every station starts at stage 0 with a fresh
// uniform draw, so the attempt process needs ~CWmax slots — which now
// scales with n — to mix into its stationary law; throughput is
// measured on a second Run segment after an equal warm segment.
//
// Tolerance: 1.5%. Measured steady-state disagreement against the
// frozen form is ≤ 0.4% across the three cases; the remainder is
// sampling noise (≳ 50k measured successes per case, ≲ 0.5%) plus the
// model's ignored O(1/CW) zero-redraw chains. The small-n fixed-point
// regime is covered separately by eventsim's
// TestBianchiFixedPointThroughput.
func TestBianchiAgreementLargeN(t *testing.T) {
	cases := []struct {
		n             int
		cwMin, stages int
		warm, measure sim.Duration
	}{
		// Mixing time ≈ CWmax slots; warm covers it several times over.
		{4096, 1024, 3, 60 * sim.Second, 60 * sim.Second},
		{16384, 4096, 3, 120 * sim.Second, 120 * sim.Second},
		{100_000, 100_000, 0, 150 * sim.Second, 150 * sim.Second},
	}
	for _, tc := range cases {
		if testing.Short() && tc.n > 4096 {
			// The larger tiers simulate 240–300 s each, the bulk of this
			// test's run time; the full (non-short) suite still covers them.
			continue
		}
		cwMax := tc.cwMin << uint(tc.stages)
		policies := make([]mac.Policy, tc.n)
		for i := range policies {
			policies[i] = mac.NewStandardDCF(tc.cwMin, cwMax)
		}
		s, err := New(Config{Policies: policies, Seed: int64(tc.n)})
		if err != nil {
			t.Fatal(err)
		}
		warmRes := s.Run(tc.warm)
		var warmBits int64
		for _, b := range warmRes.PerStation {
			warmBits += b
		}
		warmDur, warmSucc := warmRes.Duration, warmRes.Successes
		res := s.Run(tc.warm + tc.measure) // absolute end: continues the same run
		var totalBits int64
		for _, b := range res.PerStation {
			totalBits += b
		}
		got := float64(totalBits-warmBits) / (res.Duration - warmDur).Seconds()
		d := model.DCF{
			PHY:     model.PaperPHY(),
			Backoff: model.BackoffParams{CWMin: tc.cwMin, M: tc.stages},
			N:       tc.n,
		}
		want := d.FrozenThroughput()
		rel := math.Abs(got-want) / want
		t.Logf("n=%d CW=[%d,%d]: slotsim %.3f Mbps vs frozen %.3f Mbps (rel %.4f, %d measured successes)",
			tc.n, tc.cwMin, cwMax, got/1e6, want/1e6, rel, res.Successes-warmSucc)
		if rel > 0.015 {
			t.Errorf("n=%d: slotsim %.3f Mbps vs frozen closed form %.3f Mbps, relative error %.4f > 0.015",
				tc.n, got/1e6, want/1e6, rel)
		}
		// The freezing-vs-Bianchi semantic gap: plain Bianchi overshoots
		// the engine by a few percent in this regime. Assert it stays a
		// gap — if the two ever agree here, either the engine's resume
		// semantics or the model transform changed silently.
		bianchi := d.Throughput()
		if gap := (bianchi - got) / bianchi; gap < 0.01 || gap > 0.10 {
			t.Errorf("n=%d: Bianchi-vs-engine gap %.4f outside the documented (0.01, 0.10) band", tc.n, gap)
		}
	}
}
