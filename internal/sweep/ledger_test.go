package sweep

import (
	"bytes"
	"errors"
	"testing"

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
