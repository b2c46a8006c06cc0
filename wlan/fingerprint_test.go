package wlan

// Bit-identity fingerprints for the public facade: Lab.Run on both
// engines, over every run field a Config carries — scheme, weights,
// traffic, churn, controller window, RTS/CTS, frame errors and a frame
// tracer — hashed over the JSON encoding of the Result and pinned by a
// committed fixture. The engines' own batteries pin the engines; this
// one pins how the facade configures them, so any change to the
// Config → engine assembly must reproduce these bytes exactly.
//
// Regenerate ONLY on an intentional behaviour change (make golden):
//
//	go test ./wlan -run TestLabRunFingerprints -update

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"os"
	"testing"
	"time"
)

var updateFingerprints = flag.Bool("update", false, "regenerate the facade fingerprint fixture and the /metrics golden")

const facadeFixture = "testdata/fingerprints.json"

type facadeRecord struct {
	Name      string `json:"name"`
	Seed      int64  `json:"seed"`
	SHA256    string `json:"sha256"`
	Successes int64  `json:"successes"`
}

type facadeCase struct {
	name  string
	seeds []int64
	// config builds the run's Config for seed; close, when non-nil,
	// releases what the config holds after the run.
	config func(seed int64) (cfg Config, close func() error)
}

func facadeCases() []facadeCase {
	plain := func(f func(seed int64) Config) func(int64) (Config, func() error) {
		return func(seed int64) (Config, func() error) { return f(seed), nil }
	}
	return []facadeCase{
		{
			name: "event-hidden-tora-rtscts", seeds: []int64{1, 2},
			config: plain(func(seed int64) Config {
				return Config{
					Topology:     HiddenDisc(20, 16, seed),
					Scheme:       TORACSMA,
					RTSCTS:       true,
					UpdatePeriod: 100 * time.Millisecond,
					Duration:     1500 * time.Millisecond,
					Seed:         seed,
				}
			}),
		},
		{
			name: "event-connected-wtop-weights-poisson-churn", seeds: []int64{3, 4},
			config: plain(func(seed int64) Config {
				return Config{
					Topology: Connected(10),
					Scheme:   WTOPCSMA,
					Weights:  []float64{1, 1, 2, 2, 1, 1, 3, 1, 1, 1},
					Traffic:  []TrafficSpec{PoissonTraffic(200)},
					Churn: []ChurnStep{
						{At: 0, Active: 4},
						{At: Duration(500 * time.Millisecond), Active: 10},
						{At: Duration(time.Second), Active: 7},
					},
					Duration: 2 * time.Second,
					Seed:     seed,
				}
			}),
		},
		{
			name: "event-custom-dcf-fer-onoff", seeds: []int64{5, 6},
			config: plain(func(seed int64) Config {
				return Config{
					Topology: Custom([]Point{{X: -14}, {X: 14}, {Y: 10}, {Y: -10}, {X: 5, Y: 5}, {X: -5, Y: -5}}),
					Scheme:   DCF,
					Traffic: []TrafficSpec{
						OnOffTraffic(100, 200*time.Millisecond, 100*time.Millisecond),
						OnOffTraffic(200, 100*time.Millisecond, 100*time.Millisecond),
						OnOffTraffic(300, 50*time.Millisecond, 150*time.Millisecond),
						OnOffTraffic(100, 300*time.Millisecond, 300*time.Millisecond),
						OnOffTraffic(400, 100*time.Millisecond, 50*time.Millisecond),
						OnOffTraffic(150, 200*time.Millisecond, 200*time.Millisecond),
					},
					FrameErrorRate: 0.05,
					Duration:       2 * time.Second,
					Seed:           seed,
				}
			}),
		},
		{
			name: "event-hidden-idlesense-trace", seeds: []int64{7, 8},
			config: func(seed int64) (Config, func() error) {
				w := NewTraceWriter(io.Discard)
				return Config{
					Topology: HiddenDisc(12, 18, seed),
					Scheme:   IdleSense,
					Duration: 1500 * time.Millisecond,
					Seed:     seed,
					Trace:    w,
				}, w.Close
			},
		},
		{
			name: "slot-connected-tora", seeds: []int64{9, 10},
			config: plain(func(seed int64) Config {
				return Config{
					Topology: Connected(12),
					Engine:   EngineSlot,
					Scheme:   TORACSMA,
					Duration: 2 * time.Second,
					Seed:     seed,
				}
			}),
		},
		{
			name: "slot-connected-wtop-weights-poisson", seeds: []int64{11, 12},
			config: plain(func(seed int64) Config {
				return Config{
					Topology: Connected(8),
					Engine:   EngineSlot,
					Scheme:   WTOPCSMA,
					Weights:  []float64{1, 2, 1, 2, 1, 3, 1, 1},
					Traffic:  []TrafficSpec{PoissonTraffic(250)},
					Duration: 2 * time.Second,
					Seed:     seed,
				}
			}),
		},
	}
}

// TestLabRunFingerprints pins Lab.Run's exact Result across the
// battery; see the file comment for the regeneration policy.
func TestLabRunFingerprints(t *testing.T) {
	lab := NewLab()
	defer lab.Close()
	var got []facadeRecord
	for _, fc := range facadeCases() {
		for _, seed := range fc.seeds {
			cfg, closeFn := fc.config(seed)
			res, err := lab.Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", fc.name, seed, err)
			}
			if closeFn != nil {
				if err := closeFn(); err != nil {
					t.Fatal(err)
				}
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.Sum256(data)
			got = append(got, facadeRecord{Name: fc.name, Seed: seed, SHA256: hex.EncodeToString(h[:]), Successes: res.Successes})
		}
	}
	if *updateFingerprints {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(facadeFixture, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d fingerprints", facadeFixture, len(got))
		return
	}
	data, err := os.ReadFile(facadeFixture)
	if err != nil {
		t.Fatalf("missing fingerprint fixture (run with -update to create): %v", err)
	}
	var want []facadeRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d fingerprints, battery produced %d (run with -update after adding cases)", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s seed %d: Lab.Run output drifted:\n  got  %+v\n  want %+v",
				got[i].Name, got[i].Seed, got[i], want[i])
		}
	}
}
