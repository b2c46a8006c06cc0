package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
)

// Shard selects a deterministic partition of the expanded grid: point
// i belongs to shard i % Count. The zero value means "the whole grid".
// Shards of the same grid are disjoint and complete, so their merged
// outputs reproduce an unsharded run byte for byte.
type Shard struct {
	Index int
	Count int
}

// ParseShard parses the CLI form "i/N" (0 ≤ i < N). The whole string
// must be consumed: a typo like "0/2.5" errors rather than silently
// running shard 0/2.
func ParseShard(s string) (Shard, error) {
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("sweep: shard %q is not of the form i/N", s)
	}
	i, errI := strconv.Atoi(is)
	n, errN := strconv.Atoi(ns)
	if errI != nil || errN != nil {
		return Shard{}, fmt.Errorf("sweep: shard %q is not of the form i/N", s)
	}
	sh := Shard{Index: i, Count: n}
	if err := sh.validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

func (sh Shard) validate() error {
	if sh.Index == 0 && sh.Count == 0 {
		return nil
	}
	if sh.Count < 1 || sh.Index < 0 || sh.Index >= sh.Count {
		return fmt.Errorf("sweep: shard %d/%d out of range", sh.Index, sh.Count)
	}
	return nil
}

func (sh Shard) owns(i int) bool {
	if sh.Count <= 1 {
		return true
	}
	return i%sh.Count == sh.Index
}

// Stats counts how a run's points were satisfied. The JSON tags are
// the sidecar meta encoding (see Meta).
type Stats struct {
	// Total is the full expanded grid size.
	Total int `json:"total"`
	// Owned is how many points fell in this run's shard.
	Owned int `json:"owned"`
	// Simulated points ran through the scenario runner this run.
	Simulated int `json:"simulated"`
	// Cached points were served from the cache without simulating.
	Cached int `json:"cached"`
	// Quarantined counts corrupt cache entries this run moved aside
	// (to <key>.corrupt) and re-simulated instead of trusting.
	Quarantined int `json:"quarantined,omitempty"`
}

// Counts is the live record of how sweep points were satisfied:
// typed atomics that Runner.run adds to as points land, and that any
// goroutine may read meanwhile. It sums every run of the Runners that
// share it, where a run's Stats count that run alone; once the runs
// have finished, Owned = Simulated + Cached + Failed.
type Counts struct {
	// Owned counts points in the runs' shards, added at expansion.
	Owned atomic.Uint64
	// Simulated counts points satisfied by simulation.
	Simulated atomic.Uint64
	// Cached counts points served from the result cache.
	Cached atomic.Uint64
	// Failed counts owned points an aborted run left unsatisfied: the
	// failing point plus everything drained behind it.
	Failed atomic.Uint64
	// Rows counts rows handed to the consumer.
	Rows atomic.Uint64
}

// String renders the one-line report the CLI prints (CI greps it to
// prove cache hits, so keep the "N simulated" phrasing stable).
func (st Stats) String() string {
	s := fmt.Sprintf("%d/%d points (%d simulated, %d cached)",
		st.Owned, st.Total, st.Simulated, st.Cached)
	if st.Quarantined > 0 {
		s += fmt.Sprintf(", %d quarantined", st.Quarantined)
	}
	return s
}

// PointResult pairs a point with its aggregate summary.
type PointResult struct {
	*Point
	Summary *scenario.Summary

	// summaryJSON is the summary's canonical json.Marshal encoding,
	// which WriteRow splices into the row; a cache hit carries only
	// these bytes until Each decodes them. Its stored name is replaced
	// by the point's.
	summaryJSON []byte
}

// Runner executes sweep grids.
type Runner struct {
	// Cache, when non-nil, is consulted before and written after every
	// point.
	Cache *Cache
	// Shard restricts execution to one partition (zero = all points).
	Shard Shard
	// Scenarios, when non-nil, is the scenario runner (persistent
	// worker pool) every point fans out through — the hook that lets a
	// long-lived facade (wlan.Lab) share one pool across many sweeps.
	// Nil runs each sweep on a private pool of GOMAXPROCS workers that
	// is closed when the sweep ends. The Runner never closes an external
	// pool.
	Scenarios *scenario.Runner
	// Counts, when non-nil, is added to as points are satisfied. Nothing
	// in the run reads it back.
	Counts *Counts
}

// Run executes the grid and returns the shard's results in point
// order, plus the run statistics.
func (r *Runner) Run(ctx context.Context, g *Grid) ([]*PointResult, Stats, error) {
	var out []*PointResult
	st, err := r.Each(ctx, g, func(pr *PointResult) error {
		out = append(out, pr)
		return nil
	})
	return out, st, err
}

// Each executes the grid and invokes emit once per owned point, in
// point order, with its decoded summary. A non-nil emit error aborts
// the sweep (remaining points drain unsimulated) and is returned.
// Cancelling ctx aborts at replication granularity and returns
// ctx.Err(); because emission is strictly in point order, the
// contiguous prefix of completed points is still emitted, while
// completed points buffered behind an unfinished one are discarded with
// the rest.
func (r *Runner) Each(ctx context.Context, g *Grid, emit func(*PointResult) error) (Stats, error) {
	return r.run(ctx, g, func(pr *PointResult) error {
		if pr.Summary == nil { // a cache hit: decode it under this grid's point name
			pr.Summary = &scenario.Summary{}
			if err := json.Unmarshal(pr.summaryJSON, pr.Summary); err != nil {
				return fmt.Errorf("sweep: point %d: decode cached summary: %w", pr.Index, err)
			}
			pr.Summary.Name = pr.Name
		}
		return emit(pr)
	}, nil)
}

// streamBufferSize is Stream's output buffer. A row is about 1.3 KB,
// and WriteRow builds it in the buffer's spare room, so a buffer of
// dozens of rows seldom leaves a row to build on the heap.
const streamBufferSize = 64 << 10

// Stream executes the grid and writes one JSONL row per owned point,
// in point order, to w. Rows are buffered and flushed at cache-commit
// boundaries — each time a contiguous run of completed points is
// emitted — so an interrupted run leaves whole rows behind without
// paying one small write syscall per point. Cache hits are served as
// their checksummed summary bytes, spliced into the row without being
// decoded or re-encoded.
func (r *Runner) Stream(ctx context.Context, g *Grid, w io.Writer) (Stats, error) {
	bw := bufio.NewWriterSize(w, streamBufferSize)
	st, err := r.run(ctx, g, func(pr *PointResult) error {
		return WriteRow(bw, pr)
	}, bw.Flush)
	if err != nil {
		bw.Flush()
		return st, err
	}
	return st, bw.Flush()
}

// WriteRow writes one point result's canonical JSONL row in one Write:
// the object {"index", "name", "axes", "key", "summary"} exactly as
// json.Marshal encodes it, with the summary under the point's name.
// The encoding is deterministic (sorted map keys, shortest round-trip
// floats), which is what makes shard merges and golden diffs exact. It
// appends the row head field by field — the axes
// sorted by field name, as a map encodes — and splices the summary's
// canonical bytes (marshalled first for a bare Summary) after it, so
// every emitter — the Runner and the svc coordinator alike — writes
// identical streams. A writer with an AvailableBuffer method, such as
// a *bufio.Writer or a *bytes.Buffer, has the row appended in its
// spare capacity; any other gets a row allocated per call.
func WriteRow(w io.Writer, pr *PointResult) error {
	sum := pr.summaryJSON
	if sum == nil {
		var err error
		if sum, err = json.Marshal(pr.Summary); err != nil {
			return fmt.Errorf("sweep: marshal row: %w", err)
		}
	}
	tail, ok := summaryTail(sum)
	if !ok {
		return fmt.Errorf("sweep: point %d: summary bytes do not open with a name", pr.Index)
	}
	var sorted [MaxAxes]AxisValue
	axes := append(sorted[:0], pr.Axes...)
	slices.SortFunc(axes, func(a, b AxisValue) int { return strings.Compare(a.Field, b.Field) })

	var row []byte
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		row = ab.AvailableBuffer() // a *bufio.Writer's or *bytes.Buffer's spare capacity
	} else {
		row = make([]byte, 0, 256+len(sum))
	}
	row = strconv.AppendInt(append(row, `{"index":`...), int64(pr.Index), 10)
	row = append(row, `,"name":`...)
	nameAt := len(row)
	row = appendString(row, pr.Name)
	name := row[nameAt:]
	row = append(row, `,"axes":{`...)
	for k, av := range axes {
		if k > 0 {
			row = append(row, ',')
		}
		var err error
		if row, err = appendValue(append(appendString(row, av.Field), ':'), av.Value); err != nil {
			return err
		}
	}
	row = appendString(append(row, `},"key":`...), pr.Key)
	row = append(append(row, `,"summary":{"name":`...), name...)
	row = append(append(row, tail...), "}\n"...)
	_, err := w.Write(row)
	return err
}

// appendValue appends json.Marshal(v) of an axis value, with durations
// as their strings like everywhere else.
func appendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case int64:
		return strconv.AppendInt(b, x, 10), nil
	case bool:
		return strconv.AppendBool(b, x), nil
	case string:
		return appendString(b, x), nil
	case scenario.Duration:
		return appendString(b, time.Duration(x).String()), nil
	}
	enc, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("sweep: marshal row: %w", err)
	}
	return append(b, enc...), nil
}

// appendString appends json.Marshal(s), directly when no byte of s
// needs an escape.
func appendString(b []byte, s string) []byte {
	if !plainJSON(s) {
		enc, _ := json.Marshal(s) // a string always marshals
		return append(b, enc...)
	}
	return append(append(append(b, '"'), s...), '"')
}

// plainJSON reports whether json.Marshal writes s as itself in quotes:
// printable ASCII with no quote, backslash or HTML-escaped character.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

var plainByte = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

// summaryNamePrefix opens every canonical summary encoding: Name is
// Summary's first field and has no omitempty.
const summaryNamePrefix = `{"name":"`

// summaryTail returns what follows the name string in a canonical
// summary encoding, which starts with summaryNamePrefix; ok is false if
// it does not, or if the string never closes.
func summaryTail(sum []byte) (tail []byte, ok bool) {
	if !bytes.HasPrefix(sum, []byte(summaryNamePrefix)) {
		return nil, false
	}
	for i := len(summaryNamePrefix); i < len(sum); i++ {
		switch sum[i] {
		case '\\':
			i++ // skip the escaped byte; \uXXXX digits need no care
		case '"':
			return sum[i+1:], true
		}
	}
	return nil, false
}

// run is the pipelined execution core: expand, filter to the shard,
// replay the cache, and feed every remaining point's replications into
// one shared scenario worker pool. Points complete out of order, and a
// Ledger commits each the moment it lands and emits rows in point
// order. flush, when non-nil, runs at the cache-commit boundaries (after
// the replay and after each simulated completion), so streamed output
// survives interruption in whole rows without a write syscall per point.
func (r *Runner) run(ctx context.Context, g *Grid, emit func(*PointResult) error, flush func() error) (st Stats, err error) {
	c := r.Counts
	if c == nil {
		c = new(Counts)
	}
	// Owned points a failed run never satisfied — the erroring point
	// plus everything drained behind it — are counted as failed, so the
	// totals always obey Owned = Simulated + Cached + Failed.
	defer func() {
		if err != nil {
			c.Failed.Add(uint64(st.Owned - st.Simulated - st.Cached))
		}
	}()
	// Observe cancellation up front so an already-cancelled context
	// reports ctx.Err() whatever the cache temperature: without this, a
	// fully cached grid would succeed (the replay never simulates, so
	// the pool never sees ctx) while the same cold grid would fail.
	if err := ctx.Err(); err != nil {
		return st, err
	}
	if err := r.Shard.validate(); err != nil {
		return st, err
	}
	pts, err := Expand(g)
	if err != nil {
		return st, err
	}
	st.Total = len(pts)
	var owned []*Point
	for _, pt := range pts {
		if r.Shard.owns(pt.Index) {
			owned = append(owned, pt)
		}
	}
	st.Owned = len(owned)
	c.Owned.Add(uint64(st.Owned))

	// The first emit error aborts the run, and it sticks: points already
	// in flight still complete into the cache, but their rows must not
	// reach emit again.
	l := NewLedger(owned, r.Cache)
	var emitErr error
	emitRow := func(pr *PointResult) error {
		if emitErr != nil {
			return emitErr
		}
		if emitErr = emit(pr); emitErr != nil {
			return emitErr
		}
		c.Rows.Add(1)
		return nil
	}

	missing, err := l.Replay(emitRow)
	st.Cached, st.Quarantined = l.Cached(), l.Quarantined()
	c.Cached.Add(uint64(st.Cached))
	if err == nil && flush != nil {
		err = flush()
	}
	if err != nil || len(missing) == 0 {
		return st, err
	}

	sr := r.Scenarios
	if sr == nil {
		sr = &scenario.Runner{}
		defer sr.Close()
	}
	specs := make([]*scenario.Spec, len(missing))
	for k, i := range missing {
		specs[k] = &owned[i].Spec
	}
	// Cache-put, emit and flush failures abort the batch through the
	// callback's error: the pool drains the remaining points unsimulated
	// instead of burning CPU on results nobody will read.
	err = sr.RunBatchFunc(ctx, specs, func(k int, sum *scenario.Summary) error {
		if err := l.Commit(missing[k], sum); err != nil {
			return err
		}
		st.Simulated++
		c.Simulated.Add(1)
		if err := l.Advance(emitRow); err != nil || flush == nil {
			return err
		}
		return flush()
	})
	return st, err
}

// Merge combines shard JSONL outputs into the byte-exact unsharded
// stream: rows are reordered by point index, verified to form exactly
// the contiguous range 0..n-1, and written without re-encoding. It
// returns the merged row count.
func Merge(w io.Writer, shards ...io.Reader) (int, error) {
	type rec struct {
		index int
		line  []byte
	}
	var rows []rec
	seen := map[int]bool{}
	for si, sh := range shards {
		sc := bufio.NewScanner(sh)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		for sc.Scan() {
			line := append([]byte(nil), sc.Bytes()...)
			if len(line) == 0 {
				continue
			}
			var probe struct {
				Index *int `json:"index"`
			}
			if err := json.Unmarshal(line, &probe); err != nil || probe.Index == nil {
				return 0, fmt.Errorf("sweep: shard %d: not a sweep row: %.80s", si, line)
			}
			if seen[*probe.Index] {
				return 0, fmt.Errorf("sweep: duplicate point index %d across shards", *probe.Index)
			}
			seen[*probe.Index] = true
			rows = append(rows, rec{*probe.Index, line})
		}
		if err := sc.Err(); err != nil {
			return 0, fmt.Errorf("sweep: shard %d: %w", si, err)
		}
	}
	if len(rows) == 0 {
		return 0, fmt.Errorf("sweep: no rows to merge")
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].index < rows[j].index })
	for i, r := range rows {
		if r.index != i {
			return 0, fmt.Errorf("sweep: shards are incomplete: missing point index %d", i)
		}
	}
	bw := bufio.NewWriter(w)
	for _, r := range rows {
		bw.Write(r.line)
		bw.WriteByte('\n')
	}
	return len(rows), bw.Flush()
}
