// Package sweep is the declarative parameter-grid layer over scenario
// specs: a Grid names a base Spec plus axes (station counts, scheme,
// arrival rate, frame-error rate, RTS/CTS, topology parameters, ...),
// and the package expands the cross-product into concrete scenario
// specs with canonical names, executes them through the scenario
// runner's single fan-out path, streams one JSONL result row per
// point, and backs execution with a content-addressed on-disk cache so
// re-runs and resumed runs skip completed points. A grid can be
// partitioned into deterministic shards (point index mod shard count)
// whose merged outputs are byte-identical to an unsharded run — the
// substrate for splitting large studies across CI machines.
package sweep

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/scenario"
)

// ErrInvalidGrid is wrapped by every grid decode/expansion validation
// failure (per-point scenario failures additionally wrap
// scenario.ErrInvalidSpec), so facade layers can classify input errors
// with errors.Is instead of string matching.
var ErrInvalidGrid = errors.New("invalid sweep grid")

// wrapInvalidGrid marks err as an ErrInvalidGrid failure without double
// wrapping.
func wrapInvalidGrid(err error) error {
	if err == nil || errors.Is(err, ErrInvalidGrid) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrInvalidGrid, err)
}

// Grid is the on-disk sweep format: a base scenario plus axes whose
// cross-product defines the points. The base need not validate on its
// own (axes may supply required dimensions like the station count);
// every expanded point must.
type Grid struct {
	// Name prefixes every point's canonical name.
	Name string `json:"name,omitempty"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Base is the scenario every point starts from.
	Base scenario.Spec `json:"base"`
	// Axes are applied in order; the last axis varies fastest.
	Axes []Axis `json:"axes"`
}

// Axis is one swept dimension: a field name from the Field* constants
// and the values it takes.
type Axis struct {
	Field  string            `json:"field"`
	Values []json.RawMessage `json:"values"`
}

// Axis field names. Each sets one dimension of the expanded spec.
const (
	FieldNodes          = "nodes"            // topology.n (int)
	FieldScheme         = "scheme"           // channel-access scheme (string)
	FieldRate           = "rate"             // arrival rate of every traffic entry (float, pkts/s)
	FieldFrameErrorRate = "frame_error_rate" // i.i.d. data-frame loss (float)
	FieldRTSCTS         = "rtscts"           // RTS/CTS exchange (bool)
	FieldTopology       = "topology"         // topology.kind (string)
	FieldRadius         = "radius"           // topology.radius (float, metres)
	FieldSeparation     = "separation"       // topology.separation (float, metres)
	FieldDuration       = "duration"         // simulated time per replication (duration)
	FieldSeeds          = "seeds"            // replications per point (int)
	FieldSeed           = "seed"             // base seed (int)
	FieldUpdatePeriod   = "update_period"    // controller window Δ (duration)
	FieldControl        = "control"          // fixed p or p0, no controller (float)
)

// Expansion ceilings. Grids come from files, so every dimension that
// controls memory or CPU is bounded rather than trusted.
const (
	// MaxAxes bounds the grid dimensionality.
	MaxAxes = 8
	// MaxAxisValues bounds the values per axis.
	MaxAxisValues = 4096
	// MaxPoints bounds the expanded cross-product.
	MaxPoints = 100_000
	// maxGridBytes bounds the accepted file size.
	maxGridBytes = 4 << 20
)

// valueKind is the JSON type an axis field accepts.
type valueKind int

const (
	intKind valueKind = iota
	floatKind
	boolKind
	stringKind
	durationKind
	// ptrFloatKind is a float the spec holds by pointer, so omitempty
	// drops no value of it, zero included.
	ptrFloatKind
)

// fieldDef couples an axis field's value type with its spec setter.
// member is the field's JSON member in the spec encoding and holds
// reports whether a validated spec carries value v there; both are
// unset for the fields whose value reaches other members (see
// spliceable).
type fieldDef struct {
	kind   valueKind
	apply  func(sp *scenario.Spec, v any) error
	member string
	holds  func(sp *scenario.Spec, v any) bool
}

// fieldDefs is the closed set of sweepable fields. Validation happens
// later, in Spec.Validate via Expand, so setters only assign.
var fieldDefs = map[string]fieldDef{
	FieldNodes: {intKind, func(sp *scenario.Spec, v any) error {
		//wlanvet:allow bounded: Spec.Validate rejects node counts outside [1, MaxStations] before any simulation runs
		sp.Topology.N = int(v.(int64))
		return nil
	}, "n", func(sp *scenario.Spec, v any) bool { return int64(sp.Topology.N) == v.(int64) }},
	FieldScheme: {stringKind, func(sp *scenario.Spec, v any) error {
		sp.Scheme = v.(string)
		return nil
	}, "scheme", func(sp *scenario.Spec, v any) bool { return sp.Scheme == v.(string) }},
	FieldRate: {floatKind, func(sp *scenario.Spec, v any) error {
		if len(sp.Traffic) == 0 {
			return fmt.Errorf("a %q axis needs a traffic model in the base scenario", FieldRate)
		}
		for i := range sp.Traffic {
			sp.Traffic[i].Rate = v.(float64)
		}
		return nil
	}, "", nil},
	FieldFrameErrorRate: {floatKind, func(sp *scenario.Spec, v any) error {
		sp.FrameErrorRate = v.(float64)
		return nil
	}, "frame_error_rate", func(sp *scenario.Spec, v any) bool { return sp.FrameErrorRate == v.(float64) }},
	FieldRTSCTS: {boolKind, func(sp *scenario.Spec, v any) error {
		sp.RTSCTS = v.(bool)
		return nil
	}, "rtscts", func(sp *scenario.Spec, v any) bool { return sp.RTSCTS == v.(bool) }},
	FieldTopology: {stringKind, func(sp *scenario.Spec, v any) error {
		sp.Topology.Kind = v.(string)
		return nil
	}, "", nil},
	FieldRadius: {floatKind, func(sp *scenario.Spec, v any) error {
		sp.Topology.Radius = v.(float64)
		return nil
	}, "radius", func(sp *scenario.Spec, v any) bool { return sp.Topology.Radius == v.(float64) }},
	FieldSeparation: {floatKind, func(sp *scenario.Spec, v any) error {
		sp.Topology.Separation = v.(float64)
		return nil
	}, "separation", func(sp *scenario.Spec, v any) bool { return sp.Topology.Separation == v.(float64) }},
	FieldDuration: {durationKind, func(sp *scenario.Spec, v any) error {
		sp.Duration = v.(scenario.Duration)
		return nil
	}, "duration", func(sp *scenario.Spec, v any) bool { return sp.Duration == v.(scenario.Duration) }},
	FieldSeeds: {intKind, func(sp *scenario.Spec, v any) error {
		//wlanvet:allow bounded: Spec.Validate rejects non-positive or absurd seed counts before any simulation runs
		sp.Seeds = int(v.(int64))
		return nil
	}, "seeds", func(sp *scenario.Spec, v any) bool { return int64(sp.Seeds) == v.(int64) }},
	FieldSeed: {intKind, func(sp *scenario.Spec, v any) error {
		sp.Seed = v.(int64)
		return nil
	}, "seed", func(sp *scenario.Spec, v any) bool { return sp.Seed == v.(int64) }},
	FieldUpdatePeriod: {durationKind, func(sp *scenario.Spec, v any) error {
		sp.UpdatePeriod = v.(scenario.Duration)
		return nil
	}, "update_period", func(sp *scenario.Spec, v any) bool { return sp.UpdatePeriod == v.(scenario.Duration) }},
	FieldControl: {ptrFloatKind, func(sp *scenario.Spec, v any) error {
		c := v.(float64)
		sp.Control = &c
		return nil
	}, "control", func(sp *scenario.Spec, v any) bool { return sp.Control != nil && *sp.Control == v.(float64) }},
}

// Ints builds axis values from Go ints (programmatic grids).
func Ints(vs ...int) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		out[i] = json.RawMessage(strconv.Itoa(v))
	}
	return out
}

// Floats builds axis values from Go floats.
func Floats(vs ...float64) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		out[i] = json.RawMessage(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return out
}

// Strings builds axis values from Go strings.
func Strings(vs ...string) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		b, _ := json.Marshal(v)
		out[i] = b
	}
	return out
}

// Bools builds axis values from Go bools.
func Bools(vs ...bool) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		out[i] = json.RawMessage(strconv.FormatBool(v))
	}
	return out
}

// Durations builds axis values from Go durations.
func Durations(vs ...time.Duration) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		b, _ := json.Marshal(v.String())
		out[i] = b
	}
	return out
}

// fieldNames lists the sweepable axis fields in sorted order, statically
// rather than by ranging fieldDefs: the list feeds user-facing error
// text, which must not depend on map iteration order.
// TestFieldsMatchDefs pins it against the fieldDefs keys.
var fieldNames = []string{
	FieldControl,
	FieldDuration,
	FieldFrameErrorRate,
	FieldNodes,
	FieldRadius,
	FieldRate,
	FieldRTSCTS,
	FieldScheme,
	FieldSeed,
	FieldSeeds,
	FieldSeparation,
	FieldTopology,
	FieldUpdatePeriod,
}

// Fields returns the sweepable axis field names, sorted.
func Fields() []string {
	return slices.Clone(fieldNames)
}

// decodeValue parses one axis value as the field's type. Ints must be
// exact JSON integers; floats must be finite.
func decodeValue(kind valueKind, raw json.RawMessage) (any, error) {
	switch kind {
	case intKind:
		var n int64
		if err := strictValue(raw, &n); err != nil {
			return nil, fmt.Errorf("want an integer, got %s", raw)
		}
		return n, nil
	case floatKind, ptrFloatKind:
		var f float64
		if err := strictValue(raw, &f); err != nil {
			return nil, fmt.Errorf("want a number, got %s", raw)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("non-finite number %s", raw)
		}
		return f, nil
	case boolKind:
		var b bool
		if err := strictValue(raw, &b); err != nil {
			return nil, fmt.Errorf("want true or false, got %s", raw)
		}
		return b, nil
	case stringKind:
		var s string
		if err := strictValue(raw, &s); err != nil {
			return nil, fmt.Errorf("want a string, got %s", raw)
		}
		return s, nil
	case durationKind:
		var d scenario.Duration
		if err := strictValue(raw, &d); err != nil {
			return nil, fmt.Errorf("want a duration, got %s", raw)
		}
		return d, nil
	}
	return nil, fmt.Errorf("unknown value kind %d", kind)
}

// strictValue unmarshals one JSON value rejecting trailing garbage.
func strictValue(raw json.RawMessage, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data")
	}
	return nil
}

// renderValue is the canonical token of an axis value, used in point
// names and duplicate detection. The rendering is deterministic: Go's
// shortest round-trip float formatting and Go duration strings.
func renderValue(v any) string {
	switch x := v.(type) {
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	case string:
		return x
	case scenario.Duration:
		return time.Duration(x).String()
	}
	return fmt.Sprintf("%v", v)
}

// AxisValue is one resolved (field, value) coordinate of a point.
type AxisValue struct {
	Field string
	Value any
}

// Point is one expanded grid cell: a fully defaulted, validated
// scenario spec plus its coordinates and cache key.
type Point struct {
	// Index is the point's position in expansion order (first axis
	// slowest) — the sharding and merge key.
	Index int
	// Name is the canonical point name, e.g. "grid/scheme=802.11,nodes=20".
	Name string
	// Axes are the point's coordinates in axis order.
	Axes []AxisValue
	// Spec is the concrete scenario (defaults applied).
	Spec scenario.Spec
	// Key is the content hash of (Spec sans name, engine version) —
	// the cache address of this point's summary.
	Key string
}

// Decode parses and validates a sweep grid file. Unknown fields are
// rejected; the expansion itself is validated by Expand. Failures wrap
// ErrInvalidGrid.
func Decode(data []byte) (*Grid, error) {
	if len(data) > maxGridBytes {
		return nil, wrapInvalidGrid(fmt.Errorf("sweep: file is %d bytes, limit %d", len(data), maxGridBytes))
	}
	g := &Grid{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(g); err != nil {
		return nil, wrapInvalidGrid(fmt.Errorf("sweep: bad grid: %w", err))
	}
	if dec.More() {
		return nil, wrapInvalidGrid(fmt.Errorf("sweep: trailing data after the grid object"))
	}
	return g, nil
}

// Expand realises the grid's cross-product in deterministic order (the
// last axis varies fastest) and validates every point. The returned
// specs have all scenario defaults applied, so two grids that describe
// the same physics expand to identical specs — and identical cache
// keys — regardless of which defaults they spell out. Validation
// failures wrap ErrInvalidGrid.
func Expand(g *Grid) ([]*Point, error) {
	pts, err := expand(g)
	if err != nil {
		return nil, wrapInvalidGrid(err)
	}
	return pts, nil
}

// gridAxis is one decoded axis of a grid.
type gridAxis struct {
	field  string
	def    fieldDef
	values []any
	tokens []string // "field=value" name parts
}

// decodeAxes decodes and checks the grid's axes and returns them with
// the size of their cross-product.
func decodeAxes(g *Grid) ([]gridAxis, int, error) {
	if len(g.Axes) > MaxAxes {
		return nil, 0, fmt.Errorf("sweep: %d axes exceed the limit %d", len(g.Axes), MaxAxes)
	}
	axes := make([]gridAxis, len(g.Axes))
	seenField := map[string]bool{}
	total := 1
	for i, a := range g.Axes {
		def, ok := fieldDefs[a.Field]
		if !ok {
			return nil, 0, fmt.Errorf("sweep: axis %d: unknown field %q (want one of %s)",
				i, a.Field, strings.Join(Fields(), ", "))
		}
		if seenField[a.Field] {
			return nil, 0, fmt.Errorf("sweep: duplicate axis field %q", a.Field)
		}
		seenField[a.Field] = true
		if len(a.Values) == 0 {
			return nil, 0, fmt.Errorf("sweep: axis %q has no values", a.Field)
		}
		if len(a.Values) > MaxAxisValues {
			return nil, 0, fmt.Errorf("sweep: axis %q has %d values, limit %d", a.Field, len(a.Values), MaxAxisValues)
		}
		ax := gridAxis{field: a.Field, def: def}
		seenValue := map[string]bool{}
		for j, raw := range a.Values {
			v, err := decodeValue(def.kind, raw)
			if err != nil {
				return nil, 0, fmt.Errorf("sweep: axis %q value %d: %w", a.Field, j, err)
			}
			tok := renderValue(v)
			if seenValue[tok] {
				return nil, 0, fmt.Errorf("sweep: axis %q repeats value %s", a.Field, tok)
			}
			seenValue[tok] = true
			ax.values = append(ax.values, v)
			ax.tokens = append(ax.tokens, a.Field+"="+tok)
		}
		axes[i] = ax
		if total > MaxPoints/len(ax.values) {
			return nil, 0, fmt.Errorf("sweep: grid exceeds %d points", MaxPoints)
		}
		total *= len(ax.values)
	}
	return axes, total, nil
}

func expand(g *Grid) ([]*Point, error) {
	axes, total, err := decodeAxes(g)
	if err != nil {
		return nil, err
	}

	// Points and their coordinates are carved from two slabs, and a
	// name joins the per-grid "field=token" strings.
	pts := make([]*Point, total)
	slab := make([]Point, total)
	coords := make([]AxisValue, total*len(axes))
	tokens := make([]string, len(axes))
	idx := make([]int, len(axes))
	var keys *keyTemplate
	for pi := range pts {
		sp := cloneSpec(&g.Base)
		pt := &slab[pi]
		pt.Index = pi
		pt.Axes = coords[pi*len(axes) : (pi+1)*len(axes) : (pi+1)*len(axes)]
		for ai := range axes {
			v := axes[ai].values[idx[ai]]
			if err := axes[ai].def.apply(&sp, v); err != nil {
				return nil, fmt.Errorf("sweep: axis %q: %w", axes[ai].field, err)
			}
			pt.Axes[ai] = AxisValue{Field: axes[ai].field, Value: v}
			tokens[ai] = axes[ai].tokens[idx[ai]]
		}
		pt.Name = strings.Join(tokens, ",")
		if pt.Name == "" { // the one point of a grid with no axes
			pt.Name = cmp.Or(g.Name, "point")
		} else if g.Name != "" {
			pt.Name = g.Name + "/" + pt.Name
		}
		sp.Name = pt.Name
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: point %s: %w", pt.Name, err)
		}
		pt.Spec = sp
		if pi == 0 {
			keys = newKeyTemplate(&g.Base, &sp, axes)
		}
		if keys != nil {
			pt.Key = keys.key(&sp, idx)
		} else {
			pt.Key = SpecKey(&sp)
		}
		pts[pi] = pt
		for ai := len(axes) - 1; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(axes[ai].values) {
				break
			}
			idx[ai] = 0
		}
	}
	return pts, nil
}

// spliceable reports whether an axis over field changes a point's spec
// encoding only in the field's own member, given the grid's base: apply
// and Validate write nothing else from its value. A rate rewrites every
// traffic entry, a topology kind picks the radius and separation
// defaults, a duration sets an unset warmup to half of it, and the
// station count sets an unset capture window to three times it.
func spliceable(field string, base *scenario.Spec) bool {
	switch field {
	case FieldRate, FieldTopology:
		return false
	case FieldDuration:
		return base.Warmup != nil
	case FieldNodes:
		return !base.Capture || base.CaptureWindow != 0
	}
	return true
}

// keyTemplate computes the keys of one grid's points without
// marshalling their specs. When every axis is spliceable, the points'
// key inputs differ only in the axes' members, so each is a fixed
// sequence of chunks with one segment per axis between them. A
// segment is marshalled once per axis value, and the SHA-256 state
// after the engine version and the first chunk is saved once and
// restored per point.
type keyTemplate struct {
	splices []splice // in encoding order
	chunks  [][]byte // chunks[k] follows splices[k]'s segment
	state   []byte   // the digest state after the first chunk
	h       hash.Hash
	sum     []byte
}

// splice is one axis's segment for each of its values.
type splice struct {
	axis   int
	values []any
	segs   [][]byte
	holds  func(sp *scenario.Spec, v any) bool
}

// spliceMarks holds, per value kind, a value no point carries in
// practice. The template spec holds its kind's mark in every axis
// member, so each member's bytes can be found and cut out of its
// encoding. The int mark fits an int on every architecture.
var spliceMarks = [...]any{
	intKind:      int64(-987654321),
	floatKind:    -9.87654321e-300,
	boolKind:     true,
	stringKind:   "\x00",
	durationKind: scenario.Duration(-987654321),
	ptrFloatKind: -9.87654321e-300,
}

// memberSegment is what json.Marshal writes for a spec member of kind
// holding v after the member before it: `,"member":value`, or nothing
// for a zero value, which omitempty drops (every spliced member has it)
// unless the member is a pointer. No spliced member comes first in its
// object, which name and kind do.
func memberSegment(member string, kind valueKind, v any) []byte {
	var zero bool
	switch x := v.(type) {
	case int64:
		zero = x == 0
	case float64:
		zero = x == 0
	case bool:
		zero = !x
	case string:
		zero = x == ""
	case scenario.Duration:
		zero = x == 0
	}
	if zero && kind != ptrFloatKind {
		return []byte{}
	}
	enc, _ := json.Marshal(v) // axis values are finite scalars, which always marshal
	return append([]byte(`,"`+member+`":`), enc...)
}

// newKeyTemplate builds the template of the grid whose first point has
// the validated spec sp. It returns nil, leaving every key to SpecKey,
// when an axis is not spliceable, when a marked member is not found
// exactly once, or when the template misses SpecKey on sp itself.
func newKeyTemplate(base, sp *scenario.Spec, axes []gridAxis) *keyTemplate {
	marked := *sp // shallow: the setters assign scalars, and json.Marshal only reads
	marked.Name, marked.Description = "", ""
	for _, ax := range axes {
		if !spliceable(ax.field, base) {
			return nil
		}
		ax.def.apply(&marked, spliceMarks[ax.def.kind]) // a spliceable field's setter cannot fail
	}
	enc, err := json.Marshal(&marked)
	if err != nil {
		return nil
	}
	type cut struct{ at, end, axis int }
	cuts := make([]cut, len(axes))
	for ai, ax := range axes {
		seg := memberSegment(ax.def.member, ax.def.kind, spliceMarks[ax.def.kind])
		if bytes.Count(enc, seg) != 1 {
			return nil
		}
		at := bytes.Index(enc, seg)
		cuts[ai] = cut{at, at + len(seg), ai}
	}
	slices.SortFunc(cuts, func(a, b cut) int { return a.at - b.at })
	head := len(enc)
	if len(cuts) > 0 {
		head = cuts[0].at
	}
	t := &keyTemplate{h: sha256.New()}
	t.h.Write([]byte(EngineVersion))
	t.h.Write([]byte{0})
	t.h.Write(enc[:head])
	if t.state, err = t.h.(encoding.BinaryMarshaler).MarshalBinary(); err != nil {
		return nil
	}
	for k, c := range cuts {
		next := len(enc)
		if k+1 < len(cuts) {
			next = cuts[k+1].at
		}
		ax := axes[c.axis]
		s := splice{axis: c.axis, values: ax.values, segs: make([][]byte, len(ax.values)), holds: ax.def.holds}
		for j, v := range ax.values {
			s.segs[j] = memberSegment(ax.def.member, ax.def.kind, v)
		}
		t.splices = append(t.splices, s)
		t.chunks = append(t.chunks, enc[c.end:next])
	}
	if t.key(sp, make([]int, len(axes))) != SpecKey(sp) {
		return nil
	}
	return t
}

// key returns the key of the validated point spec sp at axis value
// indexes idx: SpecKey(sp), spliced, or computed by SpecKey when
// Validate replaced an axis value with a default (a zero scheme, seed
// or radius, say).
func (t *keyTemplate) key(sp *scenario.Spec, idx []int) string {
	for _, s := range t.splices {
		if !s.holds(sp, s.values[idx[s.axis]]) {
			return SpecKey(sp)
		}
	}
	if err := t.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(t.state); err != nil {
		return SpecKey(sp)
	}
	for k, s := range t.splices {
		t.h.Write(s.segs[idx[s.axis]])
		t.h.Write(t.chunks[k])
	}
	t.sum = t.h.Sum(t.sum[:0])
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], t.sum)
	return string(hexSum[:])
}

// cloneSpec deep-copies a spec so per-point mutations (traffic rate,
// churn, warmup) cannot alias the base or other points.
func cloneSpec(sp *scenario.Spec) scenario.Spec {
	q := *sp
	if sp.Warmup != nil {
		w := *sp.Warmup
		q.Warmup = &w
	}
	if sp.Control != nil {
		c := *sp.Control
		q.Control = &c
	}
	q.Weights = slices.Clone(sp.Weights)
	q.Traffic = slices.Clone(sp.Traffic)
	q.Churn = slices.Clone(sp.Churn)
	q.Topology.Points = slices.Clone(sp.Topology.Points)
	return q
}
