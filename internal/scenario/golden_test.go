package scenario

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/scheme"
)

var update = flag.Bool("update", false, "regenerate the golden summary fixtures")

const (
	examplesDir = "../../examples"
	goldenDir   = "../../examples/golden"
)

// exampleSuites loads every checked-in examples/*.json suite.
func exampleSuites(t *testing.T) map[string]*Suite {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(examplesDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no example specs under %s", examplesDir)
	}
	sort.Strings(paths)
	out := map[string]*Suite{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		su, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		name := filepath.Base(p)
		out[name[:len(name)-len(".json")]] = su
	}
	return out
}

// Every example suite must reproduce its committed quick-scale summary
// byte for byte, and the aggregate must be bit-identical whether the
// replications run serially or across GOMAXPROCS workers. Run with
// -update after an intentional behaviour change to regenerate the
// fixtures (CI executes the same suites through `wlansim -scenario
// -quick` and diffs the same files).
func TestExampleGoldens(t *testing.T) {
	suites := exampleSuites(t)
	for name, su := range suites {
		t.Run(name, func(t *testing.T) {
			quick := su.Quick()
			serial := Runner{Parallelism: 1}
			sums, err := serial.RunSuite(context.Background(), quick)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MarshalSummaries(sums)
			if err != nil {
				t.Fatal(err)
			}

			parallel := Runner{Parallelism: runtime.GOMAXPROCS(0)}
			psums, err := parallel.RunSuite(context.Background(), quick)
			if err != nil {
				t.Fatal(err)
			}
			pgot, err := MarshalSummaries(psums)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, pgot) {
				t.Fatalf("summaries differ between Parallelism 1 and %d", runtime.GOMAXPROCS(0))
			}

			goldenPath := filepath.Join(goldenDir, name+".summary.json")
			if *update {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", goldenPath)
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("summary drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s",
					goldenPath, got, want)
			}
		})
	}
}

// Every golden fixture must correspond to a checked-in example, so a
// renamed suite cannot silently orphan its fixture.
func TestNoOrphanGoldens(t *testing.T) {
	suites := exampleSuites(t)
	fixtures, err := filepath.Glob(filepath.Join(goldenDir, "*.summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fixtures {
		base := filepath.Base(f)
		name := base[:len(base)-len(".summary.json")]
		if _, ok := suites[name]; !ok {
			t.Errorf("golden fixture %s has no matching examples/%s.json", base, name)
		}
	}
	if len(fixtures) != len(suites) {
		t.Errorf("%d fixtures for %d example suites", len(fixtures), len(suites))
	}
}

// The full-scale hiddennodes suite is the acceptance scenario of the
// port: its first scenario must reproduce the historical
// examples/hiddennodes output at seed 2024 (converged 19.964 Mbps for
// the 802.11 scheme on the 54-hidden-pair disc the seed-2024 stream
// draws; the math/rand streams of wlansim-engine/3 drew a 35-pair disc).
// Quick mode cannot pin this (different duration), so pin the spec
// fields that define it.
func TestHiddennodesSpecPinsHistoricalConfig(t *testing.T) {
	su := exampleSuites(t)["hiddennodes"]
	if su == nil {
		t.Fatal("hiddennodes example missing")
	}
	sp := su.Scenarios[0]
	if sp.Topology.Kind != TopoDisc || sp.Topology.N != 30 || sp.Topology.Radius != 16 || sp.Topology.Seed != 2024 {
		t.Errorf("topology drifted from the historical config: %+v", sp.Topology)
	}
	if sp.Seed != 2024 || sp.Seeds != 1 {
		t.Errorf("seeding drifted: seed=%d seeds=%d", sp.Seed, sp.Seeds)
	}
	tp, err := BuildTopology(&sp.Topology, sp.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if hp := len(tp.HiddenPairs()); hp != 54 {
		t.Errorf("hidden pairs = %d, want the historical 54", hp)
	}
}

func ExampleMarshalSummaries() {
	sums := []*Summary{{Name: "demo", Scheme: scheme.DCF}}
	out, _ := MarshalSummaries(sums)
	fmt.Println(len(out) > 0)
	// Output: true
}
