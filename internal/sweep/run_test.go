package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// acceptanceGrid is a ≥100-point sweep of fast (100 ms, 1 seed) runs:
// 4 schemes × 5 node counts × 3 frame-error rates × 2 RTS/CTS = 120.
func acceptanceGrid() *Grid {
	return &Grid{
		Name: "acceptance",
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.TopoConnected},
			Duration: scenario.Duration(100e6),
			Seeds:    1,
		},
		Axes: []Axis{
			{Field: FieldScheme, Values: Strings("802.11", "IdleSense", "wTOP-CSMA", "TORA-CSMA")},
			{Field: FieldNodes, Values: Ints(2, 3, 4, 5, 6)},
			{Field: FieldFrameErrorRate, Values: Floats(0, 0.05, 0.1)},
			{Field: FieldRTSCTS, Values: Bools(false, true)},
		},
	}
}

// The PR's acceptance property: a ≥100-point sweep run as 2 shards and
// merged is byte-identical to the unsharded single-run output, and an
// immediate re-run simulates 0 points (all cache hits).
func TestShardMergeByteIdenticalAndCacheResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 120 simulations")
	}
	g := acceptanceGrid()

	fullCache, err := OpenCache(filepath.Join(t.TempDir(), "full"))
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	r := &Runner{Cache: fullCache}
	st, err := r.Stream(context.Background(), g, &full)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 120 || st.Owned != 120 || st.Simulated != 120 || st.Cached != 0 {
		t.Fatalf("unsharded stats: %+v", st)
	}

	// Two shards sharing one cache directory, as CI machines would.
	shardCache, err := OpenCache(filepath.Join(t.TempDir(), "shared"))
	if err != nil {
		t.Fatal(err)
	}
	var s0, s1 bytes.Buffer
	r0 := &Runner{Cache: shardCache, Shard: Shard{0, 2}}
	st0, err := r0.Stream(context.Background(), g, &s0)
	if err != nil {
		t.Fatal(err)
	}
	r1 := &Runner{Cache: shardCache, Shard: Shard{1, 2}}
	st1, err := r1.Stream(context.Background(), g, &s1)
	if err != nil {
		t.Fatal(err)
	}
	if st0.Owned+st1.Owned != 120 || st0.Owned != 60 {
		t.Fatalf("shard ownership: %+v / %+v", st0, st1)
	}

	var merged bytes.Buffer
	n, err := Merge(&merged, &s0, &s1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 120 {
		t.Fatalf("merged %d rows, want 120", n)
	}
	if !bytes.Equal(full.Bytes(), merged.Bytes()) {
		t.Error("merged shard output differs from the unsharded run")
	}

	// Immediate re-run against the warm cache: zero simulations, same
	// bytes.
	var rerun bytes.Buffer
	st2, err := (&Runner{Cache: fullCache}).Stream(context.Background(), g, &rerun)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Simulated != 0 || st2.Cached != 120 {
		t.Fatalf("re-run stats: %+v (want 0 simulated, 120 cached)", st2)
	}
	if !bytes.Equal(full.Bytes(), rerun.Bytes()) {
		t.Error("cached re-run output differs from the fresh run")
	}

	// Resume: a third cache warmed by shard 0 only re-simulates shard
	// 1's points.
	var resume bytes.Buffer
	st3, err := (&Runner{Cache: shardCache}).Stream(context.Background(), g, &resume)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Simulated != 0 || st3.Cached != 120 {
		t.Fatalf("post-shard full run stats: %+v", st3)
	}
	if !bytes.Equal(full.Bytes(), resume.Bytes()) {
		t.Error("resumed run output differs")
	}
}

func TestRunWithoutCache(t *testing.T) {
	g := &Grid{
		Name: "plain",
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.TopoConnected},
			Duration: scenario.Duration(100e6),
		},
		Axes: []Axis{{Field: FieldNodes, Values: Ints(2, 3)}},
	}
	results, st, err := (&Runner{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || st.Simulated != 2 || st.Cached != 0 {
		t.Fatalf("results %d, stats %+v", len(results), st)
	}
	for _, pr := range results {
		if pr.Summary == nil || pr.Summary.Name != pr.Name {
			t.Errorf("summary missing or misnamed for %s", pr.Name)
		}
		if pr.Summary.ThroughputMbps.Mean <= 0 {
			t.Errorf("%s made no progress", pr.Name)
		}
	}
}

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"0/1": {0, 1},
		"0/2": {0, 2},
		"3/4": {3, 4},
	}
	for s, want := range good {
		sh, err := ParseShard(s)
		if err != nil || sh != want {
			t.Errorf("ParseShard(%q) = %+v, %v", s, sh, err)
		}
	}
	for _, s := range []string{"", "1", "2/2", "-1/2", "1/0", "a/b", "1/2/3", "0/2.5", "0/2x", "1/2 9", " 0/2"} {
		if _, err := ParseShard(s); err == nil {
			t.Errorf("ParseShard(%q) accepted", s)
		}
	}
}

func TestMergeRejectsBadShards(t *testing.T) {
	row := func(i int) string {
		return `{"index":` + strings.TrimSpace(string(rune('0'+i))) + `,"name":"x"}` + "\n"
	}
	cases := []struct {
		name   string
		shards []string
	}{
		{"duplicate index", []string{row(0) + row(1), row(1)}},
		{"gap", []string{row(0) + row(2)}},
		{"not starting at zero", []string{row(1) + row(2)}},
		{"garbage line", []string{"not json\n"}},
		{"missing index key", []string{`{"name":"x"}` + "\n"}},
		{"empty", []string{""}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inputs := make([]io.Reader, len(tc.shards))
			for i, s := range tc.shards {
				inputs[i] = strings.NewReader(s)
			}
			var out bytes.Buffer
			if _, err := Merge(&out, inputs...); err == nil {
				t.Errorf("merge accepted %q", tc.shards)
			}
		})
	}
}

func TestMergeSingleShardRoundTrip(t *testing.T) {
	in := `{"index":0,"name":"a"}` + "\n" + `{"index":1,"name":"b"}` + "\n"
	var out bytes.Buffer
	n, err := Merge(&out, strings.NewReader(in))
	if err != nil || n != 2 {
		t.Fatalf("merge: n=%d err=%v", n, err)
	}
	if out.String() != in {
		t.Errorf("merge altered bytes:\n%q\nvs\n%q", out.String(), in)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Total: 10, Owned: 5, Simulated: 2, Cached: 3}.String()
	if !strings.Contains(s, "2 simulated") || !strings.Contains(s, "3 cached") || !strings.Contains(s, "5/10") {
		t.Errorf("stats string %q", s)
	}
}

// A cancelled context reports ctx.Err() whatever the cache temperature:
// the warm-cache path (which never touches the worker pool) must agree
// with the cold path.
func TestRunCancelledContextConsistentAcrossCache(t *testing.T) {
	g := &Grid{
		Name: "cancel-cache",
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.TopoConnected},
			Duration: scenario.Duration(100e6),
			Seeds:    1,
		},
		Axes: []Axis{{Field: FieldNodes, Values: Ints(2, 3)}},
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	warmup := &Runner{Cache: cache}
	if _, _, err := warmup.Run(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := (&Runner{Cache: cache}).Run(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("warm cache under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, _, err := (&Runner{}).Run(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("cold run under cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// trickyNames need escaping in JSON: HTML characters, quotes and
// backslashes, control bytes, non-ASCII, U+2028/U+2029 and invalid
// UTF-8 (which json.Marshal replaces by U+FFFD).
var trickyNames = []string{
	`tags<b>&amp;</b>`,
	`say "hi" \ back\slash`,
	"tab\tnewline\ncr\r",
	"ünïcödé/日本語",
	"line\u2028sep\u2029end",
	"bad\xffutf8",
}

// A spliced row — a cache hit's stored summary bytes with the point's
// name in place of the stored one — must be byte-equal to the row
// json.Marshal encodes from the decoded summary, for any names. The
// entries are stored under one tricky grid name and served under
// another: keys ignore names, so the stored name always differs. The
// row head must match too, for every axis field kind and value.
func TestSplicedRowMatchesMarshal(t *testing.T) {
	grid := func(name string) *Grid {
		return &Grid{
			Name: name,
			Base: scenario.Spec{
				Topology: scenario.TopologySpec{Kind: scenario.TopoConnected},
				Duration: scenario.Duration(100e6),
			},
			Axes: []Axis{
				{Field: FieldNodes, Values: Ints(2, 3)},
				{Field: FieldFrameErrorRate, Values: Floats(0, 1e-7)},
				{Field: FieldDuration, Values: Durations(100e6)},
				{Field: FieldScheme, Values: Strings("wTOP-CSMA")},
				{Field: FieldRTSCTS, Values: Bools(true)},
				{Field: FieldUpdatePeriod, Values: Durations(2250 * time.Microsecond)},
				{Field: FieldSeeds, Values: Ints(1)},
				{Field: FieldSeed, Values: Ints(7)},
			},
		}
	}
	for i, name := range trickyNames {
		c, err := OpenCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		stored := trickyNames[(i+1)%len(trickyNames)]
		if _, err := (&Runner{Cache: c}).Stream(context.Background(), grid(stored), io.Discard); err != nil {
			t.Fatal(err)
		}
		g := grid(name)
		var warm bytes.Buffer
		st, err := (&Runner{Cache: c}).Stream(context.Background(), g, &warm)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cached != st.Total {
			t.Fatalf("%q: warm stats %+v", name, st)
		}
		pts, err := Expand(g)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		for _, pt := range pts {
			sum, ok := c.Get(pt.Key)
			if !ok {
				t.Fatalf("%q: point %d missed", name, pt.Index)
			}
			if sum.Name == pt.Name {
				t.Fatalf("%q: stored name equals the served one; the splice is untested", name)
			}
			sum.Name = pt.Name
			want.Write(marshalRow(t, pt, sum))
		}
		if !bytes.Equal(warm.Bytes(), want.Bytes()) {
			t.Errorf("%q: spliced rows differ from json.Marshal(Row):\n%s\nvs\n%s", name, warm.Bytes(), want.Bytes())
		}
	}

	// Every axis field kind, with values no valid grid holds, each
	// character json.Marshal escapes alone in one string: the row head
	// WriteRow appends must still be json.Marshal's.
	raw := map[string][]string{
		FieldNodes:          {`12`},
		FieldScheme:         {`"<b>&amp;</b>\u2028"`, `"<"`, `"\""`},
		FieldRate:           {`0.5`},
		FieldFrameErrorRate: {`1e-7`, `1e21`},
		FieldRTSCTS:         {`true`},
		FieldTopology:       {`">"`, `"&"`, `"\\"`},
		FieldRadius:         {`16.25`},
		FieldSeparation:     {`-3`},
		FieldDuration:       {`"1.5µs"`},
		FieldUpdatePeriod:   {`"2ms250µs"`},
		FieldSeeds:          {`3`},
		FieldSeed:           {`-9007199254740993`},
	}
	for k := 0; k < 3; k++ {
		var axes []AxisValue
		for _, f := range slices.Backward(Fields()) { // unsorted, as in a grid
			vs := raw[f]
			v, err := decodeValue(fieldDefs[f].kind, json.RawMessage(vs[k%len(vs)]))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			axes = append(axes, AxisValue{Field: f, Value: v})
		}
		pt := &Point{Index: math.MaxInt32, Name: trickyNames[k], Axes: axes, Key: SpecKey(validSpec(t))}
		sum := &scenario.Summary{Name: pt.Name, Scheme: "x", Duration: 1}
		var got bytes.Buffer
		if err := WriteRow(&got, &PointResult{Point: pt, Summary: sum}); err != nil {
			t.Fatal(err)
		}
		if want := marshalRow(t, pt, sum); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("row head differs from json.Marshal(Row):\n%s\nvs\n%s", got.Bytes(), want)
		}
	}
}

// marshalRow is the JSONL row of a point and its summary as
// json.Marshal encodes a Row, durations as their strings.
func marshalRow(t *testing.T, pt *Point, sum *scenario.Summary) []byte {
	t.Helper()
	axes := map[string]any{}
	for _, av := range pt.Axes {
		v := av.Value
		if d, ok := v.(scenario.Duration); ok {
			v = renderValue(d)
		}
		axes[av.Field] = v
	}
	row, err := json.Marshal(&Row{Index: pt.Index, Name: pt.Name, Axes: axes, Key: pt.Key, Summary: sum})
	if err != nil {
		t.Fatal(err)
	}
	return append(row, '\n')
}

// Each (decoded summaries) and Stream (spliced bytes) over a warm cache
// must both reproduce a cold, uncached Stream byte for byte.
func TestWarmEachAndStreamMatchColdStream(t *testing.T) {
	g := acceptanceGrid()
	g.Name = trickyNames[0]
	g.Axes = g.Axes[:2]
	var cold bytes.Buffer
	if _, err := (&Runner{}).Stream(context.Background(), g, &cold); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var fill bytes.Buffer
	if _, err := (&Runner{Cache: c}).Each(context.Background(), g, func(pr *PointResult) error {
		return WriteRow(&fill, pr)
	}); err != nil {
		t.Fatal(err)
	}
	var each, stream bytes.Buffer
	st, err := (&Runner{Cache: c}).Each(context.Background(), g, func(pr *PointResult) error {
		if pr.Summary == nil || pr.Summary.Name != pr.Name {
			t.Errorf("Each yielded point %d without its decoded, renamed summary", pr.Index)
		}
		return WriteRow(&each, pr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != st.Total {
		t.Fatalf("warm Each stats: %+v", st)
	}
	if st, err = (&Runner{Cache: c}).Stream(context.Background(), g, &stream); err != nil {
		t.Fatal(err)
	}
	if st.Cached != st.Total {
		t.Fatalf("warm Stream stats: %+v", st)
	}
	for name, got := range map[string][]byte{"cold Each with cache": fill.Bytes(), "warm Each": each.Bytes(), "warm Stream": stream.Bytes()} {
		if !bytes.Equal(got, cold.Bytes()) {
			t.Errorf("%s differs from a cold uncached Stream", name)
		}
	}
}
