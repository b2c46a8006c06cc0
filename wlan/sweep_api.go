package wlan

import (
	"encoding/json"
	"io"
	"time"

	"repro/internal/sweep"
)

// The parameter-study layer, promoted from internal/sweep: a Grid names
// a base Scenario plus axes whose cross-product Lab.Sweep expands,
// executes through the shared worker pool, and streams back one point
// at a time — with optional content-addressed caching and deterministic
// sharding whose merged outputs are byte-identical to an unsharded run.

// Grid is a declarative parameter sweep: a base Scenario and the axes
// applied over it (the last axis varies fastest).
type Grid = sweep.Grid

// Axis is one swept dimension: a Field* name and its values. Build the
// values with Ints, Floats, Strings, Bools or Durations.
type Axis = sweep.Axis

// Axis field names accepted by Axis.Field.
const (
	FieldNodes          = sweep.FieldNodes
	FieldScheme         = sweep.FieldScheme
	FieldRate           = sweep.FieldRate
	FieldFrameErrorRate = sweep.FieldFrameErrorRate
	FieldRTSCTS         = sweep.FieldRTSCTS
	FieldTopology       = sweep.FieldTopology
	FieldRadius         = sweep.FieldRadius
	FieldSeparation     = sweep.FieldSeparation
	FieldDuration       = sweep.FieldDuration
	FieldSeeds          = sweep.FieldSeeds
	FieldSeed           = sweep.FieldSeed
	FieldUpdatePeriod   = sweep.FieldUpdatePeriod
	FieldControl        = sweep.FieldControl
)

// SweepPoint is one completed grid cell: its expansion index, canonical
// name, axis coordinates, concrete Scenario, cache key and Summary.
type SweepPoint = sweep.PointResult

// SweepStats counts how a sweep's points were satisfied (total, owned
// by this shard, simulated, served from cache).
type SweepStats = sweep.Stats

// Shard is a deterministic partition of a grid: point i belongs to
// shard i % Count. The zero value means the whole grid.
type Shard = sweep.Shard

// ParseShard parses the CLI form "i/N" (0 ≤ i < N); failures wrap
// ErrInvalidConfig.
func ParseShard(s string) (Shard, error) {
	sh, err := sweep.ParseShard(s)
	if err != nil {
		return Shard{}, &wrappedErr{sentinel: ErrInvalidConfig, err: err}
	}
	return sh, nil
}

// MergeSweeps combines shard JSONL outputs into the byte-exact
// unsharded stream: rows are reordered by point index, verified to
// form exactly the contiguous range 0..n-1, and written without
// re-encoding. It returns the merged row count.
func MergeSweeps(w io.Writer, shards ...io.Reader) (int, error) {
	return sweep.Merge(w, shards...)
}

// Ints builds axis values from Go ints.
func Ints(vs ...int) []json.RawMessage { return sweep.Ints(vs...) }

// Floats builds axis values from Go floats.
func Floats(vs ...float64) []json.RawMessage { return sweep.Floats(vs...) }

// Strings builds axis values from Go strings.
func Strings(vs ...string) []json.RawMessage { return sweep.Strings(vs...) }

// Bools builds axis values from Go bools.
func Bools(vs ...bool) []json.RawMessage { return sweep.Bools(vs...) }

// Durations builds axis values from Go durations.
func Durations(vs ...time.Duration) []json.RawMessage { return sweep.Durations(vs...) }

// SweepMeta is the sidecar stamp of one sweep run: engine version,
// grid config hash, shard, satisfaction stats and wall time. It lives
// in a separate <out>.meta.json file, never inside the JSONL rows —
// the rows stay a pure function of (grid, engine version) so shard
// merges and golden diffs remain byte-identical.
type SweepMeta = sweep.Meta

// NewSweepMeta assembles the stamp for a finished sweep run.
func NewSweepMeta(g *Grid, sh Shard, st SweepStats, started time.Time, wall time.Duration) *SweepMeta {
	return sweep.NewMeta(g, sh, st, started, wall)
}

// SweepMetaPath is the canonical sidecar location for a JSONL output
// file: <outPath>.meta.json.
func SweepMetaPath(outPath string) string { return sweep.MetaPath(outPath) }

// DecodeSweep parses and validates a sweep grid file; failures wrap
// ErrInvalidConfig. (Per-point validation happens at expansion, inside
// Lab.Sweep.)
func DecodeSweep(data []byte) (*Grid, error) {
	g, err := sweep.Decode(data)
	if err != nil {
		return nil, wrapErr(err)
	}
	return g, nil
}
