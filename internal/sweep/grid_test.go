package sweep

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

func mustDecode(t *testing.T, data string) *Grid {
	t.Helper()
	g, err := Decode([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

const demoGrid = `{
  "name": "demo",
  "base": {"topology": {"kind": "connected"}, "duration": "500ms", "seeds": 1},
  "axes": [
    {"field": "scheme", "values": ["802.11", "TORA-CSMA"]},
    {"field": "nodes", "values": [3, 6]}
  ]
}`

func TestExpandOrderAndNames(t *testing.T) {
	pts, err := Expand(mustDecode(t, demoGrid))
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{
		"demo/scheme=802.11,nodes=3",
		"demo/scheme=802.11,nodes=6",
		"demo/scheme=TORA-CSMA,nodes=3",
		"demo/scheme=TORA-CSMA,nodes=6",
	}
	if len(pts) != len(wantNames) {
		t.Fatalf("expanded to %d points, want %d", len(pts), len(wantNames))
	}
	for i, pt := range pts {
		if pt.Index != i {
			t.Errorf("point %d has index %d", i, pt.Index)
		}
		if pt.Name != wantNames[i] {
			t.Errorf("point %d name %q, want %q", i, pt.Name, wantNames[i])
		}
		if pt.Spec.Name != pt.Name {
			t.Errorf("spec name %q != point name %q", pt.Spec.Name, pt.Name)
		}
		if pt.Key == "" || len(pt.Key) != 64 {
			t.Errorf("point %d key %q not a sha256 hex digest", i, pt.Key)
		}
	}
	// The last axis varies fastest; specs carry the applied values with
	// scenario defaults filled in.
	if pts[1].Spec.Topology.N != 6 || pts[1].Spec.Scheme != "802.11" {
		t.Errorf("point 1 spec: %+v", pts[1].Spec)
	}
	if pts[2].Spec.Scheme != "TORA-CSMA" || pts[2].Spec.Topology.N != 3 {
		t.Errorf("point 2 spec: %+v", pts[2].Spec)
	}
	if pts[0].Spec.Warmup == nil || *pts[0].Spec.Warmup != scenario.Duration(250*time.Millisecond) {
		t.Errorf("defaults not applied to expanded spec: %+v", pts[0].Spec)
	}

	// A grid with no axes has one point, named after the grid alone, or
	// "point" when the grid has no name either.
	for grid, want := range map[string]string{
		`{"name": "tab2", "base": {"topology": {"n": 4}}, "axes": []}`: "tab2",
		`{"base": {"topology": {"n": 4}}, "axes": []}`:                 "point",
	} {
		pts, err := Expand(mustDecode(t, grid))
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 1 {
			t.Fatalf("axis-free grid %s expanded to %d points, want 1", grid, len(pts))
		}
		if pts[0].Name != want || pts[0].Spec.Name != want {
			t.Errorf("axis-free grid %s: point named %q (spec %q), want %q", grid, pts[0].Name, pts[0].Spec.Name, want)
		}
	}
}

// Two grids that describe the same physics — one spelling defaults out,
// one relying on them — must expand to identical cache keys, or the
// cache would re-simulate equivalent points.
func TestKeysIgnoreNamesAndSpelledOutDefaults(t *testing.T) {
	a := mustDecode(t, `{
	  "name": "first",
	  "base": {"topology": {"kind": "connected"}, "duration": "500ms"},
	  "axes": [{"field": "nodes", "values": [4]}]
	}`)
	b := mustDecode(t, `{
	  "name": "second-entirely-different-name",
	  "base": {"topology": {"kind": "connected", "radius": 8}, "duration": "500ms",
	           "scheme": "802.11", "seeds": 1, "seed": 1, "warmup": "250ms"},
	  "axes": [{"field": "nodes", "values": [4]}]
	}`)
	pa, err := Expand(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Expand(b)
	if err != nil {
		t.Fatal(err)
	}
	if pa[0].Key != pb[0].Key {
		t.Errorf("equivalent points hash differently:\n%s\n%s", pa[0].Key, pb[0].Key)
	}
	c := mustDecode(t, `{
	  "base": {"topology": {"kind": "connected"}, "duration": "501ms"},
	  "axes": [{"field": "nodes", "values": [4]}]
	}`)
	pc, err := Expand(c)
	if err != nil {
		t.Fatal(err)
	}
	if pc[0].Key == pa[0].Key {
		t.Error("different durations share a cache key")
	}
}

// The rate axis must not alias the base spec's traffic slice across
// points.
func TestExpandDoesNotAliasBase(t *testing.T) {
	g := mustDecode(t, `{
	  "base": {"topology": {"kind": "connected", "n": 3}, "duration": "500ms",
	           "traffic": [{"model": "poisson", "rate": 10}]},
	  "axes": [{"field": "rate", "values": [50, 100]}]
	}`)
	pts, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Spec.Traffic[0].Rate != 50 || pts[1].Spec.Traffic[0].Rate != 100 {
		t.Errorf("rates not applied per point: %v / %v", pts[0].Spec.Traffic[0].Rate, pts[1].Spec.Traffic[0].Rate)
	}
	if g.Base.Traffic[0].Rate != 10 {
		t.Errorf("base traffic mutated to rate %v", g.Base.Traffic[0].Rate)
	}
}

func TestExpandAllFieldKinds(t *testing.T) {
	g := mustDecode(t, `{
	  "base": {"topology": {"kind": "connected", "n": 4},
	           "traffic": [{"model": "poisson", "rate": 10}]},
	  "axes": [
	    {"field": "duration", "values": ["500ms", 1]},
	    {"field": "frame_error_rate", "values": [0, 0.1]},
	    {"field": "rtscts", "values": [false, true]},
	    {"field": "seeds", "values": [1, 2]},
	    {"field": "seed", "values": [1, 7]},
	    {"field": "update_period", "values": ["250ms", "100ms"]}
	  ]
	}`)
	pts, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 64 {
		t.Fatalf("expanded to %d points, want 64", len(pts))
	}
	last := pts[63].Spec
	if time.Duration(last.Duration) != time.Second || last.FrameErrorRate != 0.1 ||
		!last.RTSCTS || last.Seeds != 2 || last.Seed != 7 ||
		time.Duration(last.UpdatePeriod) != 100*time.Millisecond {
		t.Errorf("last point spec: %+v", last)
	}
	if !strings.Contains(pts[0].Name, "duration=500ms") || !strings.Contains(pts[63].Name, "duration=1s") {
		t.Errorf("duration tokens not canonical: %q / %q", pts[0].Name, pts[63].Name)
	}
}

func TestExpandTopologyAxes(t *testing.T) {
	g := mustDecode(t, `{
	  "base": {"duration": "500ms"},
	  "axes": [
	    {"field": "topology", "values": ["connected", "disc"]},
	    {"field": "nodes", "values": [5]}
	  ]
	}`)
	pts, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	// Family defaults apply per point: connected → 8 m circle, disc →
	// 16 m disc.
	if pts[0].Spec.Topology.Radius != 8 || pts[1].Spec.Topology.Radius != 16 {
		t.Errorf("family default radii not applied: %v / %v",
			pts[0].Spec.Topology.Radius, pts[1].Spec.Topology.Radius)
	}
	g2 := mustDecode(t, `{
	  "base": {"topology": {"kind": "disc"}, "duration": "500ms"},
	  "axes": [
	    {"field": "radius", "values": [16, 20]},
	    {"field": "nodes", "values": [5]}
	  ]
	}`)
	pts2, err := Expand(g2)
	if err != nil {
		t.Fatal(err)
	}
	if pts2[0].Spec.Topology.Radius != 16 || pts2[1].Spec.Topology.Radius != 20 {
		t.Errorf("radius axis not applied: %+v / %+v", pts2[0].Spec.Topology, pts2[1].Spec.Topology)
	}
}

func TestDecodeAndExpandErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"unknown grid field", `{"bogus": 1, "base": {}, "axes": []}`},
		{"trailing data", demoGrid + `{"x": 1}`},
		{"unknown axis field", `{"base": {"topology": {"kind": "connected", "n": 3}},
		  "axes": [{"field": "warp", "values": [1]}]}`},
		{"duplicate axis field", `{"base": {"topology": {"kind": "connected", "n": 3}},
		  "axes": [{"field": "nodes", "values": [3]}, {"field": "nodes", "values": [4]}]}`},
		{"empty axis", `{"base": {"topology": {"kind": "connected", "n": 3}},
		  "axes": [{"field": "nodes", "values": []}]}`},
		{"duplicate value", `{"base": {"topology": {"kind": "connected", "n": 3}},
		  "axes": [{"field": "nodes", "values": [3, 3]}]}`},
		{"wrong value type", `{"base": {"topology": {"kind": "connected", "n": 3}},
		  "axes": [{"field": "nodes", "values": ["three"]}]}`},
		{"float for int field", `{"base": {"topology": {"kind": "connected", "n": 3}},
		  "axes": [{"field": "nodes", "values": [3.5]}]}`},
		{"non-finite float", `{"base": {"topology": {"kind": "connected", "n": 3}},
		  "axes": [{"field": "frame_error_rate", "values": ["NaN"]}]}`},
		{"rate without traffic", `{"base": {"topology": {"kind": "connected", "n": 3}},
		  "axes": [{"field": "rate", "values": [10]}]}`},
		{"invalid point", `{"base": {"topology": {"kind": "connected"}},
		  "axes": [{"field": "nodes", "values": [0]}]}`},
		{"bad scheme value", `{"base": {"topology": {"kind": "connected", "n": 3}},
		  "axes": [{"field": "scheme", "values": ["CSMA/CD"]}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Decode([]byte(tc.data))
			if err != nil {
				return // rejected at decode — fine
			}
			if _, err := Expand(g); err == nil {
				t.Errorf("accepted: %s", tc.data)
			}
		})
	}
}

func TestExpandBoundsPoints(t *testing.T) {
	// 400 × 300 > MaxPoints must be rejected before expanding.
	seeds := make([]int, 400)
	reps := make([]int, 300)
	for i := range seeds {
		seeds[i] = i + 1
	}
	for i := range reps {
		reps[i] = i + 1
	}
	g := &Grid{
		Base: scenario.Spec{Topology: scenario.TopologySpec{Kind: scenario.TopoConnected, N: 3}},
		Axes: []Axis{
			{Field: FieldSeed, Values: Ints(seeds...)},
			{Field: FieldSeeds, Values: Ints(reps...)},
		},
	}
	if _, err := Expand(g); err == nil || !strings.Contains(err.Error(), "points") {
		t.Errorf("oversized grid accepted: %v", err)
	}
}

func TestValueHelpersRoundTrip(t *testing.T) {
	g := &Grid{
		Name: "h",
		Base: scenario.Spec{Topology: scenario.TopologySpec{Kind: scenario.TopoConnected}},
		Axes: []Axis{
			{Field: FieldNodes, Values: Ints(3, 6)},
			{Field: FieldScheme, Values: Strings("802.11")},
			{Field: FieldFrameErrorRate, Values: Floats(0, 0.25)},
			{Field: FieldRTSCTS, Values: Bools(false, true)},
			{Field: FieldDuration, Values: Durations(500 * time.Millisecond)},
		},
	}
	pts, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("%d points, want 8", len(pts))
	}
	want := "h/nodes=3,scheme=802.11,frame_error_rate=0,rtscts=false,duration=500ms"
	if pts[0].Name != want {
		t.Errorf("name %q, want %q", pts[0].Name, want)
	}
}

// TestFieldsMatchDefs pins the static sorted fieldNames list against
// the fieldDefs map: adding a sweepable field to one without the other
// fails here, and the sorted order is what user-facing error text
// depends on.
func TestFieldsMatchDefs(t *testing.T) {
	fields := Fields()
	if !slices.IsSorted(fields) {
		t.Errorf("Fields() not sorted: %v", fields)
	}
	defs := make([]string, 0, len(fieldDefs))
	for f := range fieldDefs {
		defs = append(defs, f)
	}
	slices.Sort(defs)
	if !slices.Equal(fields, defs) {
		t.Errorf("Fields() = %v,\nfieldDefs keys = %v", fields, defs)
	}
}

// TestUnknownFieldErrorTextDeterministic pins the exact unknown-field
// message: the field list must be sorted, never map-iteration order, so
// scripts and CI logs diffing against it stay stable across runs.
func TestUnknownFieldErrorTextDeterministic(t *testing.T) {
	const data = `{"base": {"topology": {"kind": "connected", "n": 3}},
	  "axes": [{"field": "warp", "values": [1]}]}`
	want := `invalid sweep grid: sweep: axis 0: unknown field "warp" (want one of ` +
		"control, duration, frame_error_rate, nodes, radius, rate, rtscts, " +
		"scheme, seed, seeds, separation, topology, update_period)"
	for i := 0; i < 10; i++ {
		g, err := Decode([]byte(data))
		if err != nil {
			t.Fatal(err)
		}
		_, err = Expand(g)
		if err == nil {
			t.Fatal("unknown field accepted")
		}
		if err.Error() != want {
			t.Fatalf("error text:\n got %q\nwant %q", err, want)
		}
	}
}
