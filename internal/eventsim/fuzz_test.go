package eventsim

import (
	"testing"
	"testing/quick"

	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestRandomConfigurationsNeverMisbehave sweeps random corners of the
// configuration space — topology shape, policy mix, RTS/CTS, error rate,
// churn — asserting the engine's global invariants: no panics (the
// engine's internal counters panic on violation), delivered bits conserve
// exactly, and per-station outcomes sum to the global counters.
func TestRandomConfigurationsNeverMisbehave(t *testing.T) {
	prop := func(seed int64, nRaw, mixRaw, radiusRaw uint8, rtscts bool, errRaw uint8) bool {
		n := 2 + int(nRaw%16)
		rng := sim.NewRNG(seed)
		// Topology: random disc radius 8..20, projected inside decode
		// range like the experiment harness does.
		radius := 8 + float64(radiusRaw%13)
		pts := topo.UniformDisc(n, radius, rng)
		for i, p := range pts {
			if d := p.Distance(topo.Point{}); d > 16 {
				scale := 15.9 / d
				pts[i] = topo.Point{X: p.X * scale, Y: p.Y * scale}
			}
		}
		tp := topo.New(topo.Point{}, pts, topo.PaperRadii())
		// Random per-station policy mix.
		policies := make([]mac.Policy, n)
		for i := range policies {
			switch (int(mixRaw) + i) % 5 {
			case 0:
				policies[i] = mac.NewStandardDCF(8, 1024)
			case 1:
				policies[i] = mac.NewPPersistent(1+float64(i%3), 0.05)
			case 2:
				policies[i] = mac.NewRandomReset(8, 7, i%7, float64(i%11)/10)
			case 3:
				policies[i] = mac.NewIdleSense()
			default:
				policies[i] = mac.NewSlowDecrease(8, 1024)
			}
		}
		s, err := New(Config{
			Topology:       tp,
			Policies:       policies,
			Seed:           seed,
			RTSCTS:         rtscts,
			FrameErrorRate: float64(errRaw%50) / 100,
		})
		if err != nil {
			return false
		}
		// Random churn mid-run.
		if err := s.SetActiveAt(sim.Time(200*sim.Millisecond), 1+n/2); err != nil {
			return false
		}
		if err := s.SetActiveAt(sim.Time(400*sim.Millisecond), n); err != nil {
			return false
		}
		res := s.Run(700 * sim.Millisecond)

		// Conservation: station bits sum to payload × successes, and
		// per-station outcome counts sum to the global counters.
		var bits, succ, fail int64
		for _, st := range res.Stations {
			bits += st.BitsDelivered
			succ += st.Successes
			fail += st.Failures
		}
		if succ != res.Successes {
			return false
		}
		if bits != res.Successes*int64(model.PaperPHY().Payload) {
			return false
		}
		// Failures = collisions + frame errors (every collided or
		// errored frame times out exactly once). Collisions are counted
		// at frame end but the matching failure lands one ACK-timeout
		// later, so frames in flight at the horizon leave a gap of at
		// most one per station.
		gap := res.Collisions + res.FrameErrors - fail
		if gap < 0 || gap > int64(n) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
