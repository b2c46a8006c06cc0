package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/scenario"
)

// The ledger's cursor moves past a row only once its emit succeeded: a
// failed row is retried whole by the next Advance, never skipped and
// never emitted twice, and a point cannot be committed twice.
func TestLedgerRetriesFailedEmit(t *testing.T) {
	pts, err := Expand(&Grid{
		Name: "ledger",
		Base: scenario.Spec{Topology: scenario.TopologySpec{Kind: scenario.TopoConnected}},
		Axes: []Axis{{Field: FieldNodes, Values: Ints(2, 3, 4)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLedger(pts, nil)
	missing, err := l.Replay(nil)
	if err != nil || len(missing) != 3 {
		t.Fatalf("uncached replay: missing %v, err %v", missing, err)
	}
	var rows bytes.Buffer
	failNext := true
	emit := func(pr *PointResult) error {
		if failNext {
			failNext = false
			return errors.New("refused")
		}
		return WriteRow(&rows, pr)
	}
	for _, i := range []int{1, 0} {
		if err := l.Commit(i, &scenario.Summary{Scheme: scenario.SchemeDCF}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Advance(emit); err == nil || rows.Len() != 0 {
		t.Fatalf("first Advance: err %v, rows %q", err, rows.Bytes())
	}
	if err := l.Advance(emit); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(0, &scenario.Summary{}); err == nil {
		t.Error("an emitted point was committed again")
	}
	if err := l.Commit(2, &scenario.Summary{Scheme: scenario.SchemeDCF}); err != nil {
		t.Fatal(err)
	}
	if err := l.Advance(emit); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, pt := range pts {
		if !l.Done(pt.Index) {
			t.Errorf("point %d not done", pt.Index)
		}
		if err := WriteRow(&want, &PointResult{Point: pt, Summary: &scenario.Summary{Scheme: scenario.SchemeDCF}}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(rows.Bytes(), want.Bytes()) {
		t.Errorf("rows after a failed emit:\n%s\nwant:\n%s", rows.Bytes(), want.Bytes())
	}
}

// serialReplay is Replay with one read after another, the reference the
// read-ahead must reproduce.
func serialReplay(l *Ledger, emit func(*PointResult) error) (missing []int, err error) {
	q0 := l.cache.Quarantined()
	defer func() { l.quarantined = l.cache.Quarantined() - q0 }()
	for i, pt := range l.points {
		data, ok := l.cache.lookup(pt.Key)
		if !ok {
			missing = append(missing, i)
			continue
		}
		l.results[i] = &PointResult{Point: pt, summaryJSON: data}
		l.cached++
		if err := l.Advance(emit); err != nil {
			return nil, err
		}
	}
	return missing, nil
}

// replayOutcome is everything a replay leaves behind.
type replayOutcome struct {
	rows                string
	missing             []int
	err                 string
	cached, quarantined int
	files               []string
}

// A replay reads entries ahead of its cursor, but a damaged entry and a
// refused emit inside the read-ahead window leave the rows, counts and
// quarantine renames of a serial replay, and no goroutine behind. The
// grid repeats every key once (radius 0 defaults to 16), so the
// damaged entry's twin must read as a clean miss, as it does serially
// after the rename.
func TestReplayMatchesSerialReplay(t *testing.T) {
	pts, err := Expand(&Grid{
		Name: "replay",
		Base: scenario.Spec{Topology: scenario.TopologySpec{Kind: scenario.TopoDisc}},
		Axes: []Axis{
			{Field: FieldRadius, Values: Floats(0, 16)},
			{Field: FieldNodes, Values: Ints(2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 40 || pts[12].Key != pts[32].Key || len(pts) > readAhead {
		t.Fatalf("grid of %d points does not repeat its keys inside one window", len(pts))
	}
	fill := func(dir string) *Cache {
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range pts[:20] { // and their twins

			if err := c.Put(pt.Key, &pt.Spec, &scenario.Summary{Name: pt.Name, Scheme: pt.Spec.Scheme}); err != nil {
				t.Fatal(err)
			}
		}
		entry := func(pt *Point) string { return filepath.Join(dir, pt.Key[:2], pt.Key+".json") }
		if err := os.WriteFile(entry(pts[12]), []byte("wlansim-engine/4 crc32c=00000000\n{}"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(entry(pts[16])); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(entry(pts[18]), []byte("wlansim-engine/0 crc32c=00000000\n{}"), 0o644); err != nil {
			t.Fatal(err)
		}
		return c
	}
	replay := func(serial bool, failAt int) replayOutcome {
		dir := t.TempDir()
		l := NewLedger(pts, fill(dir))
		var rows bytes.Buffer
		emits := 0
		emit := func(pr *PointResult) error {
			if emits++; emits == failAt {
				return errors.New("refused")
			}
			return WriteRow(&rows, pr)
		}
		var out replayOutcome
		if serial {
			out.missing, err = serialReplay(l, emit)
		} else {
			out.missing, err = l.Replay(emit)
		}
		out.rows, out.cached, out.quarantined = rows.String(), l.Cached(), l.Quarantined()
		if err != nil {
			out.err = err.Error()
		}
		filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				out.files = append(out.files, path[len(dir):])
			}
			return err
		})
		return out
	}
	goroutines := runtime.NumGoroutine()
	for _, failAt := range []int{0, 1, 10, 12} {
		got, want := replay(false, failAt), replay(true, failAt)
		if failAt == 0 && (want.quarantined != 1 || !slices.Equal(want.missing, []int{12, 16, 18, 32, 36, 38})) {
			t.Fatalf("serial replay: quarantined %d, missing %v", want.quarantined, want.missing)
		}
		if got.rows != want.rows {
			t.Errorf("emit refused at call %d: rows differ from a serial replay's:\n%s\nwant\n%s", failAt, got.rows, want.rows)
		}
		got.rows, want.rows = "", ""
		if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
			t.Errorf("emit refused at call %d:\nreplay %s\nserial %s", failAt, g, w)
		}
	}
	// The readers have returned, but may not have exited yet.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines outlive Replay", n-goroutines)
	}
}
