package eventsim_test

// Bit-identity fingerprints: a battery of configurations spanning every
// engine feature — hidden topologies, RTS/CTS, channel errors, all three
// controller schemes, unsaturated traffic, node churn — each reduced to a
// SHA-256 over the canonical JSON encoding of its full Result. The
// committed fixture pins the engine's exact output, so any refactor of
// the event core (scheduler pooling, lazy contention wake-ups, arena
// reuse) must reproduce historical behaviour bit for bit, not just pass
// statistical checks.
//
// Regenerate ONLY on an intentional behaviour change:
//
//	go test ./internal/eventsim -run TestEngineFingerprints -update

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

var updateFingerprints = flag.Bool("update", false, "regenerate the engine fingerprint fixtures")

// fingerprintCase is one seeded configuration of the battery. build
// returns the config plus an optional post-construction setup hook
// (node churn); run executes it on a fresh simulator, runReset on a
// reused one via Reset — both must produce identical Results.
type fingerprintCase struct {
	name  string
	seeds []int64
	dur   sim.Duration
	build func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error)
}

func (fc *fingerprintCase) run(t *testing.T, seed int64) *eventsim.Result {
	t.Helper()
	cfg, setup := fc.build(t, seed)
	s, err := eventsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		if err := setup(s); err != nil {
			t.Fatal(err)
		}
	}
	return s.Run(fc.dur)
}

func (fc *fingerprintCase) runReset(t *testing.T, seed int64, s *eventsim.Simulator) *eventsim.Result {
	t.Helper()
	cfg, setup := fc.build(t, seed)
	if err := s.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		if err := setup(s); err != nil {
			t.Fatal(err)
		}
	}
	return s.Run(fc.dur)
}

// policySet builds n fresh policies for the named scheme plus its
// controller. Policies carry mutable state, so every run rebuilds them.
func policySet(scheme string, n int, phy model.PHY) ([]mac.Policy, core.Controller) {
	policies := make([]mac.Policy, n)
	var controller core.Controller
	switch scheme {
	case "dcf":
		for i := range policies {
			policies[i] = mac.NewStandardDCF(16, 1024)
		}
	case "wtop":
		for i := range policies {
			policies[i] = mac.NewPPersistent(1, 0.1)
		}
		controller = core.NewWTOP(core.WTOPConfig{Scale: phy.BitRate})
	case "tora":
		back := model.PaperBackoff()
		for i := range policies {
			policies[i] = mac.NewRandomReset(back.CWMin, back.M, 0, 1)
		}
		controller = core.NewTORA(core.TORAConfig{M: back.M, Scale: phy.BitRate})
	default:
		panic("unknown scheme " + scheme)
	}
	return policies, controller
}

// discTopology reproduces the scenario builder's disc construction:
// uniform draw, rim projection inside the 16 m decode radius.
func discTopology(n int, radius float64, seed int64) *topo.Topology {
	rng := sim.NewRNG(seed)
	pts := topo.UniformDisc(n, radius, rng)
	for i, p := range pts {
		if d := p.Distance(topo.Point{}); d > 16 {
			scale := 15.999 / d
			pts[i] = topo.Point{X: p.X * scale, Y: p.Y * scale}
		}
	}
	return topo.New(topo.Point{}, pts, topo.PaperRadii())
}

// phyForBench and benchTopology are shared with the reset benchmarks.
var phyForBench = model.PaperPHY()

func benchTopology(n int) *topo.Topology {
	return topo.New(topo.Point{}, topo.CircleEdge(n, 8), topo.PaperRadii())
}

func fingerprintCases() []fingerprintCase {
	phy := model.PaperPHY()
	return []fingerprintCase{
		{
			name: "connected-dcf", seeds: []int64{1, 2}, dur: 2 * sim.Second,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, _ := policySet("dcf", 8, phy)
				return eventsim.Config{
					Topology: benchTopology(8),
					Policies: policies,
					Seed:     seed,
				}, nil
			},
		},
		{
			name: "connected-wtop", seeds: []int64{3, 4}, dur: 2 * sim.Second,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, controller := policySet("wtop", 12, phy)
				return eventsim.Config{
					Topology:   benchTopology(12),
					Policies:   policies,
					Controller: controller,
					Seed:       seed,
				}, nil
			},
		},
		{
			name: "clusters-tora", seeds: []int64{5, 6}, dur: 2 * sim.Second,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, controller := policySet("tora", 10, phy)
				return eventsim.Config{
					Topology:   topo.New(topo.Point{}, topo.TwoClusters(10, 30), topo.PaperRadii()),
					Policies:   policies,
					Controller: controller,
					Seed:       seed,
				}, nil
			},
		},
		{
			name: "disc-dcf-hidden", seeds: []int64{7, 8, 9}, dur: 2 * sim.Second,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, _ := policySet("dcf", 16, phy)
				return eventsim.Config{
					Topology: discTopology(16, 16, seed^0x5eed),
					Policies: policies,
					Seed:     seed,
				}, nil
			},
		},
		{
			name: "disc-wtop-wide", seeds: []int64{10, 11}, dur: 2 * sim.Second,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, controller := policySet("wtop", 14, phy)
				return eventsim.Config{
					Topology:   discTopology(14, 20, seed^0x5eed),
					Policies:   policies,
					Controller: controller,
					Seed:       seed,
				}, nil
			},
		},
		{
			name: "connected-rtscts", seeds: []int64{12, 13}, dur: 2 * sim.Second,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, _ := policySet("dcf", 6, phy)
				return eventsim.Config{
					Topology: benchTopology(6),
					Policies: policies,
					RTSCTS:   true,
					Seed:     seed,
				}, nil
			},
		},
		{
			name: "clusters-rtscts-wtop", seeds: []int64{14, 15}, dur: 2 * sim.Second,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, controller := policySet("wtop", 8, phy)
				return eventsim.Config{
					Topology:   topo.New(topo.Point{}, topo.TwoClusters(8, 30), topo.PaperRadii()),
					Policies:   policies,
					Controller: controller,
					RTSCTS:     true,
					Seed:       seed,
				}, nil
			},
		},
		{
			name: "frame-errors", seeds: []int64{16, 17}, dur: 2 * sim.Second,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, _ := policySet("dcf", 8, phy)
				return eventsim.Config{
					Topology:       benchTopology(8),
					Policies:       policies,
					FrameErrorRate: 0.1,
					Seed:           seed,
				}, nil
			},
		},
		{
			name: "poisson-unsaturated", seeds: []int64{18, 19}, dur: 2 * sim.Second,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, _ := policySet("dcf", 8, phy)
				arrivals := make([]traffic.Spec, 8)
				for i := range arrivals {
					arrivals[i] = traffic.Spec{Kind: traffic.Poisson, Rate: 120, QueueCap: 16}
				}
				return eventsim.Config{
					Topology: benchTopology(8),
					Policies: policies,
					Arrivals: arrivals,
					Seed:     seed,
				}, nil
			},
		},
		{
			name: "onoff-mixed", seeds: []int64{20, 21}, dur: 2 * sim.Second,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, _ := policySet("dcf", 6, phy)
				arrivals := make([]traffic.Spec, 6)
				for i := range arrivals {
					if i%2 == 0 {
						arrivals[i] = traffic.Spec{
							Kind: traffic.OnOff, Rate: 400,
							OnMean:  100 * sim.Millisecond,
							OffMean: 100 * sim.Millisecond,
						}
					} else {
						arrivals[i] = traffic.Spec{Kind: traffic.Saturated}
					}
				}
				return eventsim.Config{
					Topology: benchTopology(6),
					Policies: policies,
					Arrivals: arrivals,
					Seed:     seed,
				}, nil
			},
		},
		{
			name: "churn-tora", seeds: []int64{22, 23}, dur: 2 * sim.Second,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, controller := policySet("tora", 12, phy)
				cfg := eventsim.Config{
					Topology:      benchTopology(12),
					Policies:      policies,
					Controller:    controller,
					InitialActive: 4,
					Seed:          seed,
				}
				return cfg, func(s *eventsim.Simulator) error {
					if err := s.SetActiveAt(sim.Time(500*sim.Millisecond), 12); err != nil {
						return err
					}
					return s.SetActiveAt(sim.Time(1400*sim.Millisecond), 6)
				}
			},
		},
		{
			name: "churn-poisson-disc", seeds: []int64{24, 25}, dur: 2 * sim.Second,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, _ := policySet("dcf", 10, phy)
				arrivals := make([]traffic.Spec, 10)
				for i := range arrivals {
					arrivals[i] = traffic.Spec{Kind: traffic.Poisson, Rate: 200, QueueCap: 8}
				}
				cfg := eventsim.Config{
					Topology:      discTopology(10, 16, seed^0x5eed),
					Policies:      policies,
					Arrivals:      arrivals,
					InitialActive: 5,
					Seed:          seed,
				}
				return cfg, func(s *eventsim.Simulator) error {
					return s.SetActiveAt(sim.Time(700*sim.Millisecond), 10)
				}
			},
		},
		// Above one 64-station word: the carrier-sense rows span several
		// words, so these pin the multi-word busy-set paths.
		{
			name: "disc-dcf-hidden-80", seeds: []int64{26, 27}, dur: sim.Second / 2,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, _ := policySet("dcf", 80, phy)
				return eventsim.Config{
					Topology: discTopology(80, 16, seed^0x5eed),
					Policies: policies,
					Seed:     seed,
				}, nil
			},
		},
		{
			// p = 0.1 keeps 130 stations colliding for the whole half
			// second: no ACK, but the busiest crossing path there is.
			name: "disc-wtop-wide-130", seeds: []int64{28, 29}, dur: sim.Second / 2,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, controller := policySet("wtop", 130, phy)
				return eventsim.Config{
					Topology:   discTopology(130, 20, seed^0x5eed),
					Policies:   policies,
					Controller: controller,
					Seed:       seed,
				}, nil
			},
		},
		{
			name: "connected-rtscts-70", seeds: []int64{30, 31}, dur: sim.Second / 2,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, _ := policySet("dcf", 70, phy)
				return eventsim.Config{
					Topology: benchTopology(70),
					Policies: policies,
					RTSCTS:   true,
					Seed:     seed,
				}, nil
			},
		},
		// An ACK longer than an RTS or a data frame, with lost data
		// frames, lets a CTS arrive while an earlier NAV still holds
		// (overlapping NAVs), a NAV expire inside a beacon, and a hidden
		// station's frame end inside the AP's ACK. wTOP's memoryless
		// redraw makes a NAV'd station's idle instant at a CTS end
		// visible; it needs a second for the controller to recover from
		// its initial collapse.
		longACKCase("clusters-rtscts-long-ack", "tora", true, sim.Second/2, 32, 33),
		longACKCase("clusters-long-ack", "dcf", false, sim.Second/2, 34, 35),
		longACKCase("clusters-rtscts-long-ack-wtop", "wtop", true, sim.Second, 36, 37),
		// The SIFS gaps before an AP answer, under a second PHY (802.11b:
		// SIFS 10 µs, DIFS 50 µs, slot 20 µs), with RTS/CTS plus frame
		// errors (answered and unanswered data frames mixed), and with
		// Poisson arrivals plus churn under RTS/CTS.
		{
			// 8 ms frames on a hidden disc collapse at policySet's p of 0.1
			// and the controller's initial 0.5, so both start near 0.002.
			name: "disc-wtop-phy80211b", seeds: []int64{38, 39}, dur: 5 * sim.Second,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				phyb := model.PHY80211b()
				policies := make([]mac.Policy, 8)
				for i := range policies {
					policies[i] = mac.NewPPersistent(1, 0.002)
				}
				return eventsim.Config{
					Topology:   discTopology(8, 16, seed^0x5eed),
					Policies:   policies,
					Controller: core.NewWTOP(core.WTOPConfig{Scale: phyb.BitRate, InitialP: 0.002}),
					PHY:        phyb,
					Seed:       seed,
				}, nil
			},
		},
		{
			name: "disc-wtop-rtscts-fer", seeds: []int64{40, 41}, dur: 2 * sim.Second,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, controller := policySet("wtop", 14, phy)
				return eventsim.Config{
					Topology:       discTopology(14, 20, seed^0x5eed),
					Policies:       policies,
					Controller:     controller,
					RTSCTS:         true,
					FrameErrorRate: 0.2,
					Seed:           seed,
				}, nil
			},
		},
		{
			name: "churn-wtop-poisson-rtscts", seeds: []int64{42, 43}, dur: 2 * sim.Second,
			build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
				policies, controller := policySet("wtop", 10, phy)
				arrivals := make([]traffic.Spec, 10)
				for i := range arrivals {
					arrivals[i] = traffic.Spec{Kind: traffic.Poisson, Rate: 300, QueueCap: 8}
				}
				cfg := eventsim.Config{
					Topology:      discTopology(10, 16, seed^0x5eed),
					Policies:      policies,
					Controller:    controller,
					Arrivals:      arrivals,
					RTSCTS:        true,
					InitialActive: 4,
					Seed:          seed,
				}
				return cfg, func(s *eventsim.Simulator) error {
					if err := s.SetActiveAt(sim.Time(600*sim.Millisecond), 10); err != nil {
						return err
					}
					return s.SetActiveAt(sim.Time(1300*sim.Millisecond), 5)
				}
			},
		},
	}
}

func longACKCase(name, scheme string, rtscts bool, dur sim.Duration, seeds ...int64) fingerprintCase {
	return fingerprintCase{
		name: name, seeds: seeds, dur: dur,
		build: func(t *testing.T, seed int64) (eventsim.Config, func(*eventsim.Simulator) error) {
			phy := model.PaperPHY()
			phy.ACKLength = 3000
			policies, controller := policySet(scheme, 10, phy)
			return eventsim.Config{
				Topology:       topo.New(topo.Point{}, topo.TwoClusters(10, 30), topo.PaperRadii()),
				Policies:       policies,
				Controller:     controller,
				PHY:            phy,
				RTSCTS:         rtscts,
				FrameErrorRate: 0.3,
				Seed:           seed,
			}, nil
		},
	}
}

// resultFingerprint is the hashed record: the full Result JSON plus the
// latency histogram moments JSON cannot see (unexported fields).
type resultFingerprint struct {
	Result       *eventsim.Result
	LatencyCount int64
	LatencyMean  sim.Duration
	LatencyP50   sim.Duration
	LatencyP99   sim.Duration
	LatencyMax   sim.Duration
}

// fingerprint reduces a Result to its canonical hash plus two
// human-readable scalars for debugging drift.
func fingerprint(res *eventsim.Result) (string, int64, uint64) {
	data, err := json.Marshal(&resultFingerprint{
		Result:       res,
		LatencyCount: res.Latency.Count(),
		LatencyMean:  res.Latency.Mean(),
		LatencyP50:   res.Latency.Quantile(0.50),
		LatencyP99:   res.Latency.Quantile(0.99),
		LatencyMax:   res.Latency.Max(),
	})
	if err != nil {
		panic(err)
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:]), res.Successes, res.EventsFired
}

// fingerprintRecord is one fixture line.
type fingerprintRecord struct {
	Name      string `json:"name"`
	Seed      int64  `json:"seed"`
	SHA256    string `json:"sha256"`
	Successes int64  `json:"successes"`
	Events    uint64 `json:"events"`
}

const fingerprintFixture = "testdata/fingerprints.json"

// TestEngineFingerprints pins the engine's exact output across the
// feature battery. A mismatch means the change is NOT bit-identical:
// either fix it, or — only for an intentional behaviour change — run
// with -update and justify the regeneration in the commit.
func TestEngineFingerprints(t *testing.T) {
	var got []fingerprintRecord
	for _, fc := range fingerprintCases() {
		for _, seed := range fc.seeds {
			res := fc.run(t, seed)
			sha, succ, events := fingerprint(res)
			got = append(got, fingerprintRecord{
				Name: fc.name, Seed: seed, SHA256: sha,
				Successes: succ, Events: events,
			})
		}
	}
	if *updateFingerprints {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(fingerprintFixture), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintFixture, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d fingerprints", fingerprintFixture, len(got))
		return
	}
	data, err := os.ReadFile(fingerprintFixture)
	if err != nil {
		t.Fatalf("missing fingerprint fixture (run with -update to create): %v", err)
	}
	var want []fingerprintRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d fingerprints, battery produced %d (run with -update after adding cases)", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s seed %d: engine output drifted:\n  got  %+v\n  want %+v",
				got[i].Name, got[i].Seed, got[i], want[i])
		}
	}
}

// TestFingerprintStability re-runs one battery case and requires the
// identical hash — guarding the fingerprint itself against accidental
// nondeterminism (map iteration, time stamps) that would make the
// fixture flaky rather than protective.
func TestFingerprintStability(t *testing.T) {
	fc := fingerprintCases()[3] // disc-dcf-hidden: topology draw + hidden pairs
	a, _, _ := fingerprint(fc.run(t, fc.seeds[0]))
	b, _, _ := fingerprint(fc.run(t, fc.seeds[0]))
	if a != b {
		t.Fatalf("fingerprint of identical runs differs: %s vs %s", a, b)
	}
}
