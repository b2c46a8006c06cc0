package experiment

import (
	"context"
	"flag"
	"io/fs"
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

// Every artefact runs twice over its own sweep cache. Both passes must
// reproduce the committed table byte for byte; the first must cache the
// artefact's cells (fig12 alone simulates none), and the second must
// simulate nothing: every cell is a cache hit, so no cache entry is
// written again (a write renames a fresh file over the entry).
func TestTableGoldensFromCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every artefact twice")
	}
	for _, e := range Experiments() {
		o := goldenOptions()
		o.CacheDir = t.TempDir()
		want, err := os.ReadFile(filepath.Join(tablesDir, e.ID+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		pass := func() map[string]os.FileInfo {
			t.Helper()
			tbl, err := e.Run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if got := tbl.String(); got != string(want) {
				t.Fatalf("%s drifted from its golden through the cache:\n%s\nwant:\n%s", e.ID, got, want)
			}
			entries := map[string]os.FileInfo{}
			err = filepath.WalkDir(o.CacheDir, func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				fi, err := d.Info()
				entries[path] = fi
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			return entries
		}
		first := pass()
		if (len(first) == 0) != (e.ID == "fig12") {
			t.Errorf("%s: the first pass cached %d cells", e.ID, len(first))
		}
		second := pass()
		if len(second) != len(first) {
			t.Errorf("%s: the cache held %d files after the first pass, %d after the second", e.ID, len(first), len(second))
		}
		for path, fi := range first {
			if !os.SameFile(fi, second[path]) {
				t.Errorf("%s: the second pass rewrote %s: it simulated a cached cell", e.ID, path)
			}
		}
	}
}
