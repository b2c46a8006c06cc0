package experiment

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "regenerate the table golden fixtures")

const tablesDir = "testdata/tables"

// goldenOptions is the scale the table goldens pin: small enough to run
// under -short, two seeds so the across-seed mean fold is covered, and
// two node counts so the throughput-vs-N tables have more than one row.
func goldenOptions() Options {
	return Options{
		Duration: 2 * sim.Second,
		Warmup:   1 * sim.Second,
		Seeds:    2,
		Nodes:    []int{5, 15},
	}
}

// Every artefact must reproduce its committed table byte for byte. Run
// with -update after an intentional behaviour change to regenerate the
// fixtures (`make golden` does so together with the engine fingerprints,
// scenario summaries and sweep JSONL).
func TestTableGoldens(t *testing.T) {
	for _, e := range Experiments() {
		id := e.ID
		t.Run(id, func(t *testing.T) {
			tbl, err := e.Run(context.Background(), goldenOptions())
			if err != nil {
				t.Fatal(err)
			}
			got := tbl.String()
			path := filepath.Join(tablesDir, id+".txt")
			if *update {
				if err := os.MkdirAll(tablesDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Fatalf("%s drifted from %s:\n%s\nwant:\n%s", id, path, got, want)
			}
		})
	}
}
