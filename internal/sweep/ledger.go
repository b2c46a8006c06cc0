package sweep

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
//
// The entries are read ahead of the emit cursor (see replayReads), but
// everything with an effect — quarantining a damaged entry, counting,
// emitting and moving the cursor — happens here, in point order, so the
// rows, counts and renames are those of one read after another, also
// when an emit fails.
func (l *Ledger) Replay(emit func(*PointResult) error) (missing []int, err error) {
	if l.cache == nil {
		for i := range l.points {
			missing = append(missing, i)
		}
		return missing, nil
	}
	q0 := l.cache.Quarantined()
	defer func() { l.quarantined = l.cache.Quarantined() - q0 }()
	reads, stop := l.replayReads()
	defer stop()
	moved := map[string]bool{} // keys this replay quarantined
	for i, pt := range l.points {
		r := reads.take(i)
		if moved[pt.Key] {
			// A read ahead may predate the rename: read again, as a
			// read in turn would.
			r.sum, r.st = l.cache.read(pt.Key)
		}
		if r.st == entryDamaged {
			l.cache.quarantine(pt.Key)
			moved[pt.Key] = true
		}
		if r.st != entryHit {
			missing = append(missing, i)
			continue
		}
		l.results[i] = &PointResult{Point: pt, summaryJSON: r.sum}
		l.cached++
		if err := l.Advance(emit); err != nil {
			return nil, err
		}
	}
	return missing, nil
}

// readAhead bounds how far the entry reads may run ahead of Replay's
// cursor, so a replay holds O(readAhead) entries however large the
// grid.
const readAhead = 64

// entryRead is one read of an entry: its summary bytes and status.
type entryRead struct {
	sum []byte
	st  entryStatus
}

// aheadReads hands the reads of replayReads' goroutines to Replay.
// Position i arrives in slots[i%len(slots)]; free holds one token per
// position claimed and not yet taken, which keeps a reader from
// claiming a position whose slot is still in use.
type aheadReads struct {
	slots []chan entryRead
	free  chan struct{}
}

// take waits for position i's read and frees its slot.
func (a *aheadReads) take(i int) entryRead {
	r := <-a.slots[i%len(a.slots)]
	<-a.free
	return r
}

// replayReads starts GOMAXPROCS goroutines that read and classify the
// entries of l's points in point order, at most readAhead positions
// ahead of the next take. They have no side effect. stop ends them and
// returns once they have exited.
func (l *Ledger) replayReads() (*aheadReads, func()) {
	n := len(l.points)
	a := &aheadReads{
		slots: make([]chan entryRead, min(readAhead, n)),
		free:  make(chan struct{}, min(readAhead, n)),
	}
	for k := range a.slots {
		a.slots[k] = make(chan entryRead, 1)
	}
	var next atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case a.free <- struct{}{}:
				case <-done:
					return
				}
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				// The slot is empty: position i-len(slots) was taken
				// before the token this claim holds was freed.
				sum, st := l.cache.read(l.points[i].Key)
				a.slots[i%int64(len(a.slots))] <- entryRead{sum, st}
			}
		}()
	}
	return a, func() {
		close(done)
		wg.Wait()
	}
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
