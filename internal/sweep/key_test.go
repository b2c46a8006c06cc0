package sweep

import (
	"encoding/json"
	"math/rand/v2"
	"slices"
	"testing"
)

// spliceBases are grid bases that switch every coupling of spliceable
// on and off: an unset warmup (duration), a capture with and without a
// window (nodes), a traffic list (rate), each topology kind's radius
// and separation defaults, custom points whose count overrides n, and
// a topology seed equal to the int mark, which makes a seed axis
// ambiguous to cut.
var spliceBases = []string{
	`{"topology": {"kind": "connected", "n": 4}, "duration": "1s"}`,
	`{"topology": {"kind": "disc", "n": 5}, "duration": "1s", "warmup": "100ms",
	  "traffic": [{"model": "poisson", "rate": 10}]}`,
	`{"topology": {"kind": "clusters", "n": 6}, "capture": true, "duration": "1s", "warmup": "0s"}`,
	`{"topology": {"kind": "connected", "n": 3}, "capture": true, "capture_window": 9,
	  "rtscts": true, "frame_error_rate": 0.2, "scheme": "wTOP-CSMA", "update_period": "100ms"}`,
	`{"topology": {"kind": "custom", "points": [{"x": 1, "y": 2}, {"x": -3, "y": 0.5}], "seed": -987654321},
	  "duration": "2s", "warmup": "1s", "seed": 3}`,
	`{"topology": {"n": 2}, "duration": "2s",
	  "traffic": [{"model": "onoff", "rate": 5, "on_mean": "10ms", "off_mean": "20ms"}],
	  "churn": [{"at": "0s", "active": 1}]}`,
}

// spliceValues are raw axis values per field: zeros that omitempty
// drops, negative zeros, values Validate replaces with a default, and
// plain ones.
var spliceValues = map[string][]string{
	FieldNodes:          {`0`, `1`, `2`, `4`, `7`},
	FieldScheme:         {`""`, `"802.11"`, `"IdleSense"`, `"wTOP-CSMA"`, `"TORA-CSMA"`},
	FieldRate:           {`0.5`, `10`, `100`},
	FieldFrameErrorRate: {`0`, `-0`, `0.1`, `1e-7`, `0.5`},
	FieldRTSCTS:         {`false`, `true`},
	FieldTopology:       {`""`, `"connected"`, `"disc"`, `"clusters"`},
	FieldRadius:         {`0`, `-0`, `5`, `8`, `16`, `20`},
	FieldSeparation:     {`0`, `10`, `30`},
	FieldDuration:       {`0`, `"500ms"`, `"1s"`, `"2s"`},
	FieldSeeds:          {`0`, `1`, `3`},
	FieldSeed:           {`0`, `1`, `7`, `-5`, `-987654321`, `1000000000000000`},
	FieldUpdatePeriod:   {`"0s"`, `"100ms"`, `"250ms"`},
}

// spliceGrid builds a grid of up to four axes from pick, which returns
// a number in [0, n).
func spliceGrid(pick func(n int) int) *Grid {
	g := &Grid{Name: "splice"}
	if err := json.Unmarshal([]byte(spliceBases[pick(len(spliceBases))]), &g.Base); err != nil {
		panic(err)
	}
	fields := Fields()
	for k := pick(5); k > 0; k-- {
		f := fields[pick(len(fields))]
		fields = slices.DeleteFunc(fields, func(s string) bool { return s == f })
		vals := slices.Clone(spliceValues[f])
		var ax Axis
		ax.Field = f
		for m := 1 + pick(3); m > 0 && len(vals) > 0; m-- {
			j := pick(len(vals))
			ax.Values = append(ax.Values, json.RawMessage(vals[j]))
			vals = slices.Delete(vals, j, j+1)
		}
		g.Axes = append(g.Axes, ax)
	}
	return g
}

// checkSplicedKeys expands g and checks every point's key against
// SpecKey. It reports whether g expanded and whether its keys were
// spliced rather than left to SpecKey.
func checkSplicedKeys(t *testing.T, g *Grid) (expanded, spliced bool) {
	t.Helper()
	pts, err := Expand(g)
	if err != nil {
		return false, false
	}
	for _, pt := range pts {
		if want := SpecKey(&pt.Spec); pt.Key != want {
			raw, _ := json.Marshal(g)
			t.Fatalf("grid %s\npoint %s: key %s, SpecKey %s", raw, pt.Name, pt.Key, want)
		}
	}
	axes, _, err := decodeAxes(g)
	if err != nil {
		t.Fatal(err)
	}
	return true, newKeyTemplate(&g.Base, &pts[0].Spec, axes) != nil
}

// Every spliced key equals SpecKey: on named grids over each coupling,
// which must or must not take the template, and on random grids over
// every axis field kind.
func TestSplicedKeyMatchesSpecKey(t *testing.T) {
	named := []struct {
		name    string
		grid    string
		spliced bool
	}{
		{"campaign", `{"base": {"topology": {"kind": "connected"}, "duration": "150ms"}, "axes": [
		  {"field": "scheme", "values": ["802.11", "TORA-CSMA"]}, {"field": "nodes", "values": [2, 4]},
		  {"field": "rtscts", "values": [false, true]}, {"field": "seed", "values": [1, 2]}]}`, true},
		{"paper", `{"base": {"topology": {"kind": "disc"}, "duration": "1s", "seeds": 2}, "axes": [
		  {"field": "radius", "values": [16, 20]}, {"field": "scheme", "values": ["802.11", "wTOP-CSMA"]},
		  {"field": "nodes", "values": [5, 10]}]}`, true},
		{"omitted zeros", `{"base": {"topology": {"n": 2}, "frame_error_rate": 0.1, "rtscts": true, "update_period": "1s"}, "axes": [
		  {"field": "frame_error_rate", "values": [0, -0, 0.25]}, {"field": "rtscts", "values": [true, false]},
		  {"field": "update_period", "values": ["0s", "2s"]}]}`, true},
		{"defaulted values", `{"base": {"topology": {"kind": "disc", "n": 3}}, "axes": [
		  {"field": "scheme", "values": ["", "IdleSense"]}, {"field": "seed", "values": [0, 1, 9]},
		  {"field": "seeds", "values": [0, 2]}, {"field": "radius", "values": [0, 16, 30]}]}`, true},
		{"duration with warmup", `{"base": {"topology": {"n": 2}, "warmup": "100ms"}, "axes": [
		  {"field": "duration", "values": [0, "1s", "30s"]}]}`, true},
		{"duration without warmup", `{"base": {"topology": {"n": 2}}, "axes": [
		  {"field": "duration", "values": ["1s", "2s"]}]}`, false},
		{"nodes with capture window", `{"base": {"topology": {"n": 2}, "capture": true, "capture_window": 5}, "axes": [
		  {"field": "nodes", "values": [2, 3]}]}`, true},
		{"nodes with capture", `{"base": {"topology": {"n": 2}, "capture": true}, "axes": [
		  {"field": "nodes", "values": [2, 3]}]}`, false},
		{"nodes with custom points", `{"base": {"topology": {"kind": "custom", "points": [{"x": 1, "y": 1}]}}, "axes": [
		  {"field": "nodes", "values": [0, 1]}, {"field": "seeds", "values": [1, 2]}]}`, true},
		{"topology", `{"base": {"topology": {"n": 4}}, "axes": [
		  {"field": "topology", "values": ["connected", "disc", "clusters"]}]}`, false},
		{"rate", `{"base": {"topology": {"n": 4}, "traffic": [{"model": "poisson", "rate": 1}]}, "axes": [
		  {"field": "rate", "values": [1, 2]}]}`, false},
		{"ambiguous seed", `{"base": {"topology": {"n": 4, "seed": -987654321}}, "axes": [
		  {"field": "seed", "values": [1, 2]}]}`, false},
		{"no axes", `{"base": {"topology": {"n": 4}}, "axes": []}`, true},
	}
	for _, tc := range named {
		expanded, spliced := checkSplicedKeys(t, mustDecode(t, tc.grid))
		if !expanded {
			t.Errorf("%s: grid does not expand", tc.name)
		} else if spliced != tc.spliced {
			t.Errorf("%s: spliced = %v, want %v", tc.name, spliced, tc.spliced)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	expanded, spliced := 0, 0
	for range 2000 {
		e, s := checkSplicedKeys(t, spliceGrid(rng.IntN))
		if e {
			expanded++
		}
		if s {
			spliced++
		}
	}
	t.Logf("%d of 2000 random grids expanded, %d spliced", expanded, spliced)
	if expanded < 500 || spliced < 200 {
		t.Errorf("only %d of 2000 random grids expanded and %d spliced: the check covers too little", expanded, spliced)
	}
}

// FuzzSplicedKey draws grids as TestSplicedKeyMatchesSpecKey's random
// ones do, from the fuzzer's bytes.
func FuzzSplicedKey(f *testing.F) {
	for _, seed := range []string{"", "\x00\x04\x02\x01", "\x01\x03\x05\x02\x07\x01\x09\x02\x0b\x00", "\x04\x02\x0a\x02\x08\x00"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		checkSplicedKeys(t, spliceGrid(pick))
	})
}
