package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

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

	// summaryJSON, when non-nil, is the summary's canonical json.Marshal
	// encoding, and WriteRow splices it into the row instead of encoding
	// Summary (which may then be nil). Its stored name is replaced by
	// the point's, as a decoded cache hit's is.
	summaryJSON []byte
}

// Row is the JSONL record streamed per point. Its byte encoding is
// deterministic (sorted map keys, shortest round-trip floats), which
// is what makes shard merges and golden diffs exact.
type Row struct {
	Index   int               `json:"index"`
	Name    string            `json:"name"`
	Axes    map[string]any    `json:"axes"`
	Key     string            `json:"key"`
	Summary *scenario.Summary `json:"summary"`
}

// Runner executes sweep grids.
type Runner struct {
	// Parallelism bounds concurrent replications (0 = GOMAXPROCS).
	// Ignored when Scenarios supplies an external pool.
	Parallelism int
	// Cache, when non-nil, is consulted before and written after every
	// point.
	Cache *Cache
	// Shard restricts execution to one partition (zero = all points).
	Shard Shard
	// Scenarios, when non-nil, is the scenario runner (persistent
	// worker pool) every point fans out through — the hook that lets a
	// long-lived facade (wlan.Lab) share one pool across many sweeps.
	// Nil runs each sweep on a private pool that is closed when the
	// sweep ends. The Runner never closes an external pool.
	Scenarios *scenario.Runner
	// Metrics, when non-nil, receives live point-satisfaction counters.
	// Observation never affects execution or output bytes.
	Metrics *Metrics
}

// Run executes the grid and returns the shard's results in point
// order, plus the run statistics.
func (r *Runner) Run(ctx context.Context, g *Grid) ([]*PointResult, Stats, error) {
	var out []*PointResult
	st, err := r.run(ctx, g, false, func(pr *PointResult) error {
		out = append(out, pr)
		return nil
	}, nil)
	return out, st, err
}

// Each executes the grid and invokes emit once per owned point, in
// point order. A non-nil emit error aborts the sweep (remaining points
// drain unsimulated) and is returned. Cancelling ctx aborts at
// replication granularity and returns ctx.Err(); because emission is
// strictly in point order, the contiguous prefix of completed points is
// still emitted, while completed points buffered behind an unfinished
// one are discarded with the rest.
func (r *Runner) Each(ctx context.Context, g *Grid, emit func(*PointResult) error) (Stats, error) {
	return r.run(ctx, g, false, emit, nil)
}

// Stream executes the grid and writes one JSONL row per owned point,
// in point order, to w. Rows are buffered and flushed at cache-commit
// boundaries — each time a contiguous run of completed points is
// emitted — so an interrupted run leaves whole rows behind without
// paying one small write syscall per point. Cache hits are served as
// their checksummed summary bytes, spliced into the row without being
// decoded or re-encoded.
func (r *Runner) Stream(ctx context.Context, g *Grid, w io.Writer) (Stats, error) {
	bw := bufio.NewWriter(w)
	st, err := r.run(ctx, g, true, func(pr *PointResult) error {
		return WriteRow(bw, pr)
	}, bw.Flush)
	if err != nil {
		bw.Flush()
		return st, err
	}
	return st, bw.Flush()
}

// WriteRow encodes one point result as its canonical JSONL row. The
// byte encoding is the deterministic one Row promises, so any emitter
// that writes completed points in index order through WriteRow — the
// in-process Runner and the distributed coordinator alike — produces
// identical streams.
func WriteRow(w io.Writer, pr *PointResult) error {
	axes := make(map[string]any, len(pr.Axes))
	for _, av := range pr.Axes {
		v := av.Value
		if d, ok := v.(scenario.Duration); ok {
			v = renderValue(d) // durations as strings, like everywhere else
		}
		axes[av.Field] = v
	}
	if pr.summaryJSON != nil {
		return writeSplicedRow(w, pr, axes)
	}
	data, err := json.Marshal(&Row{
		Index:   pr.Index,
		Name:    pr.Name,
		Axes:    axes,
		Key:     pr.Key,
		Summary: pr.Summary,
	})
	if err != nil {
		return fmt.Errorf("sweep: marshal row: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// writeSplicedRow writes the bytes json.Marshal(&Row{...}) would, in
// one Write, around pr.summaryJSON: the head is the Row encoding with a
// null summary, and the summary bytes follow the point's name, which
// replaces the stored one.
func writeSplicedRow(w io.Writer, pr *PointResult, axes map[string]any) error {
	tail, ok := summaryTail(pr.summaryJSON)
	if !ok {
		return fmt.Errorf("sweep: point %d: summary bytes do not open with a name", pr.Index)
	}
	head, err := json.Marshal(&Row{Index: pr.Index, Name: pr.Name, Axes: axes, Key: pr.Key})
	if err != nil {
		return fmt.Errorf("sweep: marshal row: %w", err)
	}
	name, err := json.Marshal(pr.Name)
	if err != nil {
		return fmt.Errorf("sweep: marshal row: %w", err)
	}
	row := append(bytes.TrimSuffix(head, []byte("null}")), `{"name":`...)
	row = append(append(append(row, name...), tail...), "}\n"...)
	_, err = w.Write(row)
	return err
}

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
// serve cache hits, and feed every remaining point's replications into
// one shared scenario worker pool (the repository's single fan-out
// path). Points complete out of order — small points no longer
// serialise behind chunk barriers — but rows are emitted strictly in
// point order: a completion cursor buffers out-of-order summaries and
// drains every contiguous completed prefix, persisting each fresh
// result to the cache the moment it lands. flush, when non-nil, runs
// after each drained prefix — the cache-commit boundary — so streamed
// output survives interruption in whole rows without a write syscall
// per point. encoded selects what emit receives: with it, cache hits
// carry only their verified summary bytes (PointResult.summaryJSON)
// and cached simulated points the bytes they were put with, for
// WriteRow to splice; without it, every result carries a decoded
// Summary.
func (r *Runner) run(ctx context.Context, g *Grid, encoded bool, emit func(*PointResult) error, flush func() error) (Stats, error) {
	st, err := r.runPoints(ctx, g, encoded, emit, flush)
	// Owned points a failed run never satisfied — the erroring point
	// plus everything drained behind it — are counted as failed, so the
	// metric totals always obey Owned = Simulated + Cached + Failed.
	if err != nil && r.Metrics != nil {
		if unsat := st.Owned - st.Simulated - st.Cached; unsat > 0 {
			r.Metrics.PointsFailed.Add(uint64(unsat))
		}
	}
	return st, err
}

func (r *Runner) runPoints(ctx context.Context, g *Grid, encoded bool, emit func(*PointResult) error, flush func() error) (Stats, error) {
	var st Stats
	// Observe cancellation up front so an already-cancelled context
	// reports ctx.Err() whatever the cache temperature: without this, a
	// fully cached grid would succeed (the cache pass never simulates,
	// so the pool never sees ctx) while the same cold grid would fail.
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
	if r.Metrics != nil {
		r.Metrics.PointsOwned.Add(uint64(st.Owned))
	}

	// Emission cursor: rows leave strictly in point order; results
	// landing out of order wait in done until the prefix completes.
	// Flushing is decoupled from emission so the warm cached path still
	// batches writes: flushDirty runs at cache-commit boundaries (after
	// each simulated completion's drain and after the cache pass), never
	// per cached row.
	done := make([]*PointResult, len(owned))
	cursor := 0
	dirty := false
	advance := func() error {
		for cursor < len(owned) && done[cursor] != nil {
			pr := done[cursor]
			done[cursor] = nil // release the buffered result
			if err := emit(pr); err != nil {
				return err
			}
			if r.Metrics != nil {
				r.Metrics.RowsEmitted.Inc()
			}
			cursor++
			dirty = true
		}
		return nil
	}
	flushDirty := func() error {
		if !dirty || flush == nil {
			return nil
		}
		dirty = false
		return flush()
	}

	// Cache pass: satisfied points get their summary up front; misses
	// go to the pool. The contiguous cached prefix is drained as it is
	// discovered, so a warm re-run or resume streams rows with O(1)
	// buffered summaries; only cache hits stuck behind an in-flight
	// simulated point buffer, which the in-order job hand-out bounds by
	// the pool's completion skew.
	var missIdx []int
	var missSpecs []*scenario.Spec
	q0 := 0
	if r.Cache != nil {
		q0 = r.Cache.Quarantined()
	}
	for i, pt := range owned {
		if r.Cache != nil {
			if pr, ok := r.cached(pt, encoded); ok {
				done[i] = pr
				st.Cached++
				if r.Metrics != nil {
					r.Metrics.PointsCached.Inc()
				}
				// While no miss precedes it, the hit is part of the
				// contiguous prefix: emit immediately so a warm re-run
				// streams with O(1) buffered summaries (flushed once
				// after the pass).
				if len(missIdx) == 0 {
					if err := advance(); err != nil {
						return st, err
					}
				}
				continue
			}
		}
		missIdx = append(missIdx, i)
		missSpecs = append(missSpecs, &owned[i].Spec)
	}
	if r.Cache != nil {
		st.Quarantined = r.Cache.Quarantined() - q0
	}
	if err := flushDirty(); err != nil {
		return st, err
	}

	if len(missSpecs) > 0 {
		sr := r.Scenarios
		if sr == nil {
			private := &scenario.Runner{Parallelism: r.Parallelism}
			defer private.Close()
			sr = private
		}
		// Cache-put, emit and flush failures abort the batch through the
		// callback's error: the pool drains the remaining points
		// unsimulated instead of burning CPU on results nobody will
		// read.
		runErr := sr.RunBatchFunc(ctx, missSpecs, func(k int, sum *scenario.Summary) error {
			i := missIdx[k]
			pr := &PointResult{Point: owned[i], Summary: sum}
			if r.Cache != nil {
				// One encoding serves both the cache entry and the row.
				data, err := json.Marshal(sum)
				if err != nil {
					return fmt.Errorf("sweep: marshal summary: %w", err)
				}
				if err := r.Cache.put(owned[i].Key, &owned[i].Spec, data); err != nil {
					return err
				}
				if encoded {
					pr.summaryJSON = data
				}
			}
			done[i] = pr
			st.Simulated++
			if r.Metrics != nil {
				r.Metrics.PointsSimulated.Inc()
			}
			if err := advance(); err != nil {
				return err
			}
			return flushDirty()
		})
		if runErr != nil {
			return st, runErr
		}
	}
	// Drain the tail (all-cached grids, or cached points after the last
	// simulated one).
	return st, advance()
}

// cached serves a point from the cache. The stored name is whatever
// sweep put the entry first, so the result reports under this grid's
// canonical point name: a decoded summary is renamed, and encoded bytes
// get the name spliced in by WriteRow.
func (r *Runner) cached(pt *Point, encoded bool) (*PointResult, bool) {
	pr := &PointResult{Point: pt}
	var ok bool
	if encoded {
		pr.summaryJSON, ok = r.Cache.lookup(pt.Key)
	} else if pr.Summary, ok = r.Cache.Get(pt.Key); ok {
		pr.Summary.Name = pt.Name
	}
	return pr, ok
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
