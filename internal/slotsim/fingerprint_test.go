package slotsim_test

// Bit-identity fingerprints for the slotted engine, mirroring
// internal/eventsim's battery: every feature the engine supports —
// window and memoryless policies, both controllers, Poisson arrivals,
// Bianchi-regime station counts — hashed over the canonical Result
// encoding and pinned by a committed fixture. Any refactor of the slot
// loop (bucketed backoff tracking, the idle jump) must reproduce these
// bytes exactly.
//
// Regenerate ONLY on an intentional behaviour change:
//
//	go test ./internal/slotsim -run TestEngineFingerprints -update

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/slotsim"
	"repro/internal/traffic"
)

var updateFingerprints = flag.Bool("update", false, "regenerate the engine fingerprint fixtures")

type fingerprintCase struct {
	name  string
	seeds []int64
	dur   sim.Duration
	build func(seed int64) slotsim.Config
}

func (fc *fingerprintCase) run(t *testing.T, seed int64) *slotsim.Result {
	t.Helper()
	s := mustSim(t, fc.build(seed))
	return s.Run(fc.dur)
}

func policySet(scheme string, n int, phy model.PHY) ([]mac.Policy, core.Controller) {
	policies := make([]mac.Policy, n)
	var controller core.Controller
	switch scheme {
	case "dcf":
		for i := range policies {
			policies[i] = mac.NewStandardDCF(16, 1024)
		}
	case "pp":
		for i := range policies {
			policies[i] = mac.NewPPersistent(1, 0.02)
		}
	case "idlesense":
		for i := range policies {
			policies[i] = mac.NewIdleSense()
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
		controller = core.NewTORA(back.M)
	default:
		panic("unknown scheme " + scheme)
	}
	return policies, controller
}

func mustSim(t *testing.T, cfg slotsim.Config) *slotsim.Simulator {
	t.Helper()
	s, err := slotsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fingerprintCases() []fingerprintCase {
	phy := model.PaperPHY()
	simple := func(scheme string, n int) func(int64) slotsim.Config {
		return func(seed int64) slotsim.Config {
			policies, controller := policySet(scheme, n, phy)
			return slotsim.Config{Policies: policies, Controller: controller, Seed: seed}
		}
	}
	return []fingerprintCase{
		{name: "dcf-8", seeds: []int64{1, 2}, dur: 2 * sim.Second, build: simple("dcf", 8)},
		{name: "dcf-64-bianchi", seeds: []int64{3, 4}, dur: 2 * sim.Second, build: simple("dcf", 64)},
		{name: "pp-20", seeds: []int64{5, 6}, dur: 2 * sim.Second, build: simple("pp", 20)},
		{name: "idlesense-16", seeds: []int64{7, 8}, dur: 2 * sim.Second, build: simple("idlesense", 16)},
		{name: "wtop-12", seeds: []int64{9, 10}, dur: 2 * sim.Second, build: simple("wtop", 12)},
		{name: "tora-12", seeds: []int64{11, 12}, dur: 2 * sim.Second, build: simple("tora", 12)},
		{
			// Attempt probability low enough that mean geometric
			// backoffs (~1/p = 5000 slots) exceed the backoff tracker's
			// ring horizon (4096): pins the overflow insert/remove/
			// migration path with engine-level bit-identity.
			name: "pp-sparse-overflow", seeds: []int64{17, 18}, dur: 2 * sim.Second,
			build: func(seed int64) slotsim.Config {
				policies := make([]mac.Policy, 8)
				for i := range policies {
					policies[i] = mac.NewPPersistent(1, 2e-4)
				}
				return slotsim.Config{Policies: policies, Seed: seed}
			},
		},
		{
			name: "poisson-dcf", seeds: []int64{13, 14}, dur: 2 * sim.Second,
			build: func(seed int64) slotsim.Config {
				policies, _ := policySet("dcf", 10, phy)
				arrivals := make([]traffic.Spec, 10)
				for i := range arrivals {
					arrivals[i] = traffic.Spec{Kind: traffic.Poisson, Rate: 150, QueueCap: 16}
				}
				return slotsim.Config{Policies: policies, Arrivals: arrivals, Seed: seed}
			},
		},
		{
			name: "poisson-mixed-pp", seeds: []int64{15, 16}, dur: 2 * sim.Second,
			build: func(seed int64) slotsim.Config {
				policies, _ := policySet("pp", 12, phy)
				arrivals := make([]traffic.Spec, 12)
				for i := range arrivals {
					if i%3 == 0 {
						arrivals[i] = traffic.Spec{Kind: traffic.Saturated}
					} else {
						arrivals[i] = traffic.Spec{Kind: traffic.Poisson, Rate: 300, QueueCap: 8}
					}
				}
				return slotsim.Config{Policies: policies, Arrivals: arrivals, Seed: seed}
			},
		},
	}
}

func fingerprint(res *slotsim.Result) (string, int64) {
	data, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:]), res.Successes
}

type fingerprintRecord struct {
	Name      string `json:"name"`
	Seed      int64  `json:"seed"`
	SHA256    string `json:"sha256"`
	Successes int64  `json:"successes"`
}

const fingerprintFixture = "testdata/fingerprints.json"

// TestEngineFingerprints pins the slotted engine's exact output across
// the battery; see the package comment for the regeneration policy.
func TestEngineFingerprints(t *testing.T) {
	var got []fingerprintRecord
	for _, fc := range fingerprintCases() {
		for _, seed := range fc.seeds {
			res := fc.run(t, seed)
			sha, succ := fingerprint(res)
			got = append(got, fingerprintRecord{Name: fc.name, Seed: seed, SHA256: sha, Successes: succ})
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
