package sweep

import (
	"encoding/json"
	"fmt"

	"repro/internal/scenario"
)

// Ledger is the one commit-and-emit mechanism of a campaign: Runner and
// the sweep service's coordinator both drive one, which keeps their rows
// byte-identical. It owns the expanded points and three rules. Replay:
// a point the cache holds is done before anything runs. Commit before
// done: a fresh summary is marshalled once, the bytes go to the cache,
// and only then is the point done. Emit then advance: rows leave in
// point order, and the cursor passes a row (releasing its result) only
// once its emit succeeded, so a failed row is retried whole by the next
// Advance, never skipped or repeated. Callers serialise all calls.
type Ledger struct {
	points  []*Point
	cache   *Cache
	results []*PointResult // committed, not yet emitted
	cursor  int            // rows [0, cursor) are emitted

	cached, quarantined int
}

// NewLedger returns a ledger over points (positions index into it),
// backed by cache when it is non-nil.
func NewLedger(points []*Point, cache *Cache) *Ledger {
	return &Ledger{points: points, cache: cache, results: make([]*PointResult, len(points))}
}

// Points returns the ledger's points.
func (l *Ledger) Points() []*Point { return l.points }

// Done reports whether position i is committed.
func (l *Ledger) Done(i int) bool { return i < l.cursor || l.results[i] != nil }

// Cached and Quarantined count what Replay served from the cache and
// the damaged entries it moved aside.
func (l *Ledger) Cached() int      { return l.cached }
func (l *Ledger) Quarantined() int { return l.quarantined }

// Replay satisfies every point it can from the cache and returns the
// other positions, ascending. It emits the done prefix as it goes, so a
// warm run holds O(1) results.
func (l *Ledger) Replay(emit func(*PointResult) error) (missing []int, err error) {
	if l.cache != nil {
		q0 := l.cache.Quarantined()
		defer func() { l.quarantined = l.cache.Quarantined() - q0 }()
	}
	for i, pt := range l.points {
		var data []byte
		ok := false
		if l.cache != nil {
			data, ok = l.cache.lookup(pt.Key)
		}
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

// Commit records position i's fresh summary, renamed to its point. On
// error the point stays undone.
func (l *Ledger) Commit(i int, sum *scenario.Summary) error {
	pt := l.points[i]
	if l.Done(i) {
		return fmt.Errorf("sweep: point %d committed twice", pt.Index)
	}
	sum.Name = pt.Name
	data, err := json.Marshal(sum)
	if err != nil {
		return fmt.Errorf("sweep: marshal summary: %w", err)
	}
	if l.cache != nil {
		if err := l.cache.put(pt.Key, &pt.Spec, data); err != nil {
			return err
		}
	}
	l.results[i] = &PointResult{Point: pt, Summary: sum, summaryJSON: data}
	return nil
}

// Advance emits every committed row at the cursor, in order, and
// returns the first emit error.
func (l *Ledger) Advance(emit func(*PointResult) error) error {
	for l.cursor < len(l.points) && l.results[l.cursor] != nil {
		if err := emit(l.results[l.cursor]); err != nil {
			return err
		}
		l.results[l.cursor] = nil
		l.cursor++
	}
	return nil
}
