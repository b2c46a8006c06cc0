package scenario

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/scheme"
)

const minimalSpec = `{"name":"t","topology":{"kind":"connected","n":5}}`

func durp(d Duration) *Duration { return &d }

func TestDecodeMinimalSpec(t *testing.T) {
	su, err := Decode([]byte(minimalSpec))
	if err != nil {
		t.Fatal(err)
	}
	if len(su.Scenarios) != 1 {
		t.Fatalf("got %d scenarios", len(su.Scenarios))
	}
	sp := su.Scenarios[0]
	if sp.Scheme != scheme.DCF || sp.Seeds != 1 || sp.Seed != 1 {
		t.Errorf("defaults not applied: %+v", sp)
	}
	if sp.Duration != Duration(30*time.Second) || sp.Warmup == nil || *sp.Warmup != Duration(15*time.Second) {
		t.Errorf("duration defaults wrong: %+v", sp)
	}
	if sp.Topology.Radius != 8 {
		t.Errorf("connected radius default = %v", sp.Topology.Radius)
	}
}

func TestDecodeSuite(t *testing.T) {
	data := `{
	  "name": "pair",
	  "scenarios": [
	    {"name": "a", "topology": {"kind": "connected", "n": 3}},
	    {"name": "b", "scheme": "wTOP-CSMA", "topology": {"kind": "disc", "n": 4, "seed": 9},
	     "traffic": [{"model": "poisson", "rate": 50}], "duration": "10s", "warmup": "2s", "seeds": 3}
	  ]
	}`
	su, err := Decode([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(su.Scenarios) != 2 || su.Name != "pair" {
		t.Fatalf("bad suite: %+v", su)
	}
	b := su.Scenarios[1]
	if b.Topology.Radius != 16 || b.Seeds != 3 || b.Duration != Duration(10*time.Second) {
		t.Errorf("suite member defaults wrong: %+v", b)
	}
}

// Every malformed or hostile input must produce an error — not a panic,
// not a silent zero-value run.
func TestDecodeRejectsHostileInput(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"empty", ``},
		{"not json", `~~~`},
		{"wrong top-level type", `[1,2,3]`},
		{"empty suite", `{"scenarios":[]}`},
		{"unknown field", `{"name":"x","topology":{"kind":"connected","n":5},"bogus":1}`},
		{"unknown topology kind", `{"topology":{"kind":"torus","n":5}}`},
		{"zero stations", `{"topology":{"kind":"connected","n":0}}`},
		{"negative stations", `{"topology":{"kind":"connected","n":-3}}`},
		{"absurd stations", `{"topology":{"kind":"connected","n":100001}}`},
		{"unknown scheme", `{"scheme":"ALOHA","topology":{"kind":"connected","n":5}}`},
		{"negative duration", `{"duration":"-5s","topology":{"kind":"connected","n":5}}`},
		{"absurd duration", `{"duration":"9000h","topology":{"kind":"connected","n":5}}`},
		{"absurd replication count", `{"seeds":20000,"topology":{"kind":"connected","n":5}}`},
		{"garbage duration", `{"duration":"fast","topology":{"kind":"connected","n":5}}`},
		{"duration wrong type", `{"duration":{},"topology":{"kind":"connected","n":5}}`},
		{"warmup past duration", `{"duration":"5s","warmup":"6s","topology":{"kind":"connected","n":5}}`},
		{"negative seeds", `{"seeds":-1,"topology":{"kind":"connected","n":5}}`},
		{"absurd seeds", `{"seeds":100000,"topology":{"kind":"connected","n":5}}`},
		{"error rate one", `{"frame_error_rate":1,"topology":{"kind":"connected","n":5}}`},
		{"error rate negative", `{"frame_error_rate":-0.1,"topology":{"kind":"connected","n":5}}`},
		{"weights wrong length", `{"scheme":"wTOP-CSMA","weights":[1,2],"topology":{"kind":"connected","n":5}}`},
		{"weights wrong scheme", `{"weights":[1,1,1,1,1],"topology":{"kind":"connected","n":5}}`},
		{"weight zero", `{"scheme":"wTOP-CSMA","weights":[1,1,1,1,0],"topology":{"kind":"connected","n":5}}`},
		{"traffic wrong length", `{"traffic":[{"model":"poisson","rate":1},{"model":"poisson","rate":1}],"topology":{"kind":"connected","n":5}}`},
		{"traffic unknown model", `{"traffic":[{"model":"fractal"}],"topology":{"kind":"connected","n":5}}`},
		{"poisson without rate", `{"traffic":[{"model":"poisson"}],"topology":{"kind":"connected","n":5}}`},
		{"poisson absurd rate", `{"traffic":[{"model":"poisson","rate":1e30}],"topology":{"kind":"connected","n":5}}`},
		{"onoff without phases", `{"traffic":[{"model":"onoff","rate":10}],"topology":{"kind":"connected","n":5}}`},
		{"negative queue cap", `{"traffic":[{"model":"poisson","rate":1,"queue_cap":-2}],"topology":{"kind":"connected","n":5}}`},
		{"churn beyond duration", `{"duration":"5s","churn":[{"at":"6s","active":1}],"topology":{"kind":"connected","n":5}}`},
		{"churn active too high", `{"churn":[{"at":"1s","active":9}],"topology":{"kind":"connected","n":5}}`},
		{"churn negative active", `{"churn":[{"at":"1s","active":-1}],"topology":{"kind":"connected","n":5}}`},
		{"custom without points", `{"topology":{"kind":"custom"}}`},
		{"custom contradictory n", `{"topology":{"kind":"custom","n":3,"points":[{"x":1,"y":1}]}}`},
		{"custom point out of range", `{"topology":{"kind":"custom","points":[{"x":40,"y":0}]}}`},
		{"points on non-custom", `{"topology":{"kind":"connected","n":2,"points":[{"x":1,"y":1}]}}`},
		{"connected radius too large", `{"topology":{"kind":"connected","n":5,"radius":13}}`},
		{"disc radius too large", `{"topology":{"kind":"disc","n":5,"radius":100}}`},
		{"clusters separation too large", `{"topology":{"kind":"clusters","n":4,"separation":40}}`},
		{"clusters spread past decode radius", `{"topology":{"kind":"clusters","n":120}}`},
		{"duplicate names", `{"scenarios":[{"name":"x","topology":{"kind":"connected","n":2}},{"name":"x","topology":{"kind":"connected","n":2}}]}`},
		{"trailing garbage", minimalSpec + `{"another":1}`},
		{"update period too small", `{"update_period":"1us","topology":{"kind":"connected","n":5}}`},
		{"update period past duration", `{"duration":"2s","update_period":"3s","topology":{"kind":"connected","n":5}}`},
		{"capture window negative", `{"capture_window":-1,"topology":{"kind":"connected","n":5}}`},
	}
	for _, tc := range cases {
		if _, err := Decode([]byte(tc.data)); err == nil {
			t.Errorf("%s: Decode accepted hostile input", tc.name)
		}
	}
}

// Custom-point topologies out of AP range are rejected at build time.
func TestBuildTopologyCustomValidates(t *testing.T) {
	su, err := Decode([]byte(`{"topology":{"kind":"custom","points":[{"x":3,"y":4},{"x":-3,"y":4}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	tp, err := BuildTopology(&su.Scenarios[0].Topology, 1)
	if err != nil || tp.N() != 2 {
		t.Fatalf("valid custom topology rejected: %v", err)
	}
}

func TestDurationRoundTrip(t *testing.T) {
	for _, d := range []Duration{0, Duration(time.Millisecond), Duration(90 * time.Second), Duration(time.Hour)} {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var got Duration
		if err := json.Unmarshal(b, &got); err != nil || got != d {
			t.Errorf("round trip %v -> %s -> %v (%v)", time.Duration(d), b, time.Duration(got), err)
		}
	}
	var secs Duration
	if err := json.Unmarshal([]byte(`2.5`), &secs); err != nil || secs != Duration(2500*time.Millisecond) {
		t.Errorf("numeric seconds: %v, %v", time.Duration(secs), err)
	}
}

// A Duration encodes as the JSON string of time.Duration's String,
// whether bare or as a field of a Spec or a Summary, and decodes back
// to itself: the bytes cache keys, cache entries and sweep rows are
// built from.
func TestDurationJSONUnchanged(t *testing.T) {
	for _, d := range []Duration{0, 1, Duration(time.Microsecond), Duration(-90 * time.Second), math.MaxInt64} {
		want, err := json.Marshal(time.Duration(d).String())
		if err != nil {
			t.Fatal(err)
		}
		var got Duration
		bare, err := json.Marshal(d)
		if err != nil || string(bare) != string(want) {
			t.Errorf("%d: bare %s (%v), want %s", int64(d), bare, err, want)
		} else if err := json.Unmarshal(bare, &got); err != nil || got != d {
			t.Errorf("%d: bare %s decodes to %d (%v)", int64(d), bare, int64(got), err)
		}

		sp, err := json.Marshal(&Spec{Warmup: &d})
		if err != nil || !strings.Contains(string(sp), `"warmup":`+string(want)) {
			t.Errorf("%d: spec %s (%v), want warmup %s", int64(d), sp, err, want)
		}
		var back Spec
		if err := json.Unmarshal(sp, &back); err != nil || back.Warmup == nil || *back.Warmup != d {
			t.Errorf("%d: spec %s decodes to %+v (%v)", int64(d), sp, back.Warmup, err)
		}

		sum, err := json.Marshal(&Summary{Duration: d})
		if err != nil || !strings.Contains(string(sum), `"duration":`+string(want)) {
			t.Errorf("%d: summary %s (%v), want duration %s", int64(d), sum, err, want)
		}
		var sumBack Summary
		if err := json.Unmarshal(sum, &sumBack); err != nil || sumBack.Duration != d {
			t.Errorf("%d: summary %s decodes to %d (%v)", int64(d), sum, int64(sumBack.Duration), err)
		}
	}
}

// Quick must preserve churn proportions and never lengthen a run.
func TestQuickScaling(t *testing.T) {
	sp := Spec{
		Name:     "q",
		Topology: TopologySpec{Kind: TopoConnected, N: 4},
		Duration: Duration(180 * time.Second),
		Warmup:   durp(Duration(90 * time.Second)),
		Seeds:    5,
		Churn:    []ChurnStep{{At: Duration(60 * time.Second), Active: 2}},
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	q := sp.Quick()
	if q.Duration != Duration(3*time.Second) || q.Seeds != 2 {
		t.Errorf("quick scale: %+v", q)
	}
	if q.Warmup == nil || *q.Warmup != Duration(1500*time.Millisecond) {
		t.Errorf("warmup not rescaled: %v", q.Warmup)
	}
	if q.Churn[0].At != Duration(time.Second) {
		t.Errorf("churn not rescaled: %v", time.Duration(q.Churn[0].At))
	}
	if sp.Churn[0].At != Duration(60*time.Second) {
		t.Error("Quick mutated the original spec's churn")
	}
	if err := q.Validate(); err != nil {
		t.Errorf("quick spec does not validate: %v", err)
	}
	// Already-short specs pass through unchanged.
	short := Spec{Topology: TopologySpec{Kind: TopoConnected, N: 2}, Duration: Duration(2 * time.Second), Warmup: durp(Duration(time.Second))}
	if got := short.Quick(); got.Duration != short.Duration || *got.Warmup != *short.Warmup {
		t.Errorf("short spec rescaled: %+v", got)
	}
	// An explicit controller window wider than the quick duration must be
	// rescaled too, so any spec valid at full scale stays valid at quick
	// scale.
	wide := Spec{
		Topology:     TopologySpec{Kind: TopoConnected, N: 2},
		Duration:     Duration(60 * time.Second),
		UpdatePeriod: Duration(10 * time.Second),
	}
	if err := wide.Validate(); err != nil {
		t.Fatal(err)
	}
	qw := wide.Quick()
	if err := qw.Validate(); err != nil {
		t.Errorf("quick-scaled update_period does not validate: %v", err)
	}
	if qw.UpdatePeriod != Duration(500*time.Millisecond) {
		t.Errorf("update_period not rescaled proportionally: %v", time.Duration(qw.UpdatePeriod))
	}
}

// Quick scales Warmup and Duration independently through float64
// truncation, so the warmup < duration and churn ≤ duration invariants
// need an explicit clamp: any spec that validated at full scale must
// stay valid at quick scale, including durations barely above the 3 s
// quick cap where the scaled warmup lands within rounding distance of
// the new duration.
func TestQuickClampsSmallDurations(t *testing.T) {
	quick := Duration(3 * time.Second)
	durations := []Duration{
		quick + 1,
		quick + Duration(time.Nanosecond),
		quick + Duration(3*time.Nanosecond),
		quick + Duration(time.Microsecond),
		quick + Duration(333*time.Millisecond),
		Duration(3141592653),
		Duration(4 * time.Second),
		Duration(5*time.Second) - 1,
		Duration(24 * time.Hour),
	}
	for _, d := range durations {
		t.Run(time.Duration(d).String(), func(t *testing.T) {
			sp := Spec{
				Name:     "edge",
				Topology: TopologySpec{Kind: TopoConnected, N: 2},
				Duration: d,
				Warmup:   durp(d - 1), // as close to the invariant edge as valid
				Churn: []ChurnStep{
					{At: 0, Active: 1},
					{At: d - 1, Active: 2},
					{At: d, Active: 2},
				},
			}
			if err := sp.Validate(); err != nil {
				t.Fatalf("full-scale spec invalid: %v", err)
			}
			q := sp.Quick()
			if err := q.Validate(); err != nil {
				t.Errorf("quick-scaled spec no longer validates: %v", err)
			}
			if *q.Warmup >= q.Duration {
				t.Errorf("warmup %v >= duration %v after quick scaling",
					time.Duration(*q.Warmup), time.Duration(q.Duration))
			}
			for i, c := range q.Churn {
				if c.At > q.Duration {
					t.Errorf("churn[%d].at %v > duration %v after quick scaling",
						i, time.Duration(c.At), time.Duration(q.Duration))
				}
			}
		})
	}
}

// An explicit "warmup": 0 means "average the whole run" and must not be
// silently replaced by the Duration/2 default.
func TestExplicitZeroWarmup(t *testing.T) {
	su, err := Decode([]byte(`{"duration":"10s","warmup":"0s","topology":{"kind":"connected","n":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	if w := su.Scenarios[0].Warmup; w == nil || *w != 0 {
		t.Errorf("explicit zero warmup rewritten to %v", w)
	}
	unset, err := Decode([]byte(`{"duration":"10s","topology":{"kind":"connected","n":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	if w := unset.Scenarios[0].Warmup; w == nil || *w != Duration(5*time.Second) {
		t.Errorf("unset warmup default = %v, want 5s", w)
	}
}

// A malformed suite (top-level "scenarios" present) must report the
// suite parse error, not the misleading bare-Spec fallback error.
func TestDecodeSuiteErrorNamesRealProblem(t *testing.T) {
	_, err := Decode([]byte(`{"scenarios":[{"nmae":"x","topology":{"kind":"connected","n":2}}]}`))
	if err == nil {
		t.Fatal("typo'd suite accepted")
	}
	if !strings.Contains(err.Error(), "nmae") {
		t.Errorf("error does not name the unknown field: %v", err)
	}
}

// FuzzSpecDecode: Decode must never panic and must either return a
// validated suite or an error, whatever bytes arrive. Run with
// `go test -fuzz=FuzzSpecDecode ./internal/scenario`.
func FuzzSpecDecode(f *testing.F) {
	seeds := []string{
		minimalSpec,
		`{"scenarios":[{"name":"a","topology":{"kind":"connected","n":3}}]}`,
		`{"name":"h","scheme":"TORA-CSMA","topology":{"kind":"disc","n":30,"radius":16,"seed":2024},"duration":"90s","seeds":2}`,
		`{"topology":{"kind":"clusters","n":4,"separation":30},"rtscts":true}`,
		`{"topology":{"kind":"custom","points":[{"x":1,"y":2},{"x":-3,"y":-4}]},"frame_error_rate":0.1}`,
		`{"scheme":"wTOP-CSMA","weights":[1,1,2],"topology":{"kind":"connected","n":3}}`,
		`{"traffic":[{"model":"poisson","rate":100,"queue_cap":10}],"topology":{"kind":"connected","n":5}}`,
		`{"traffic":[{"model":"onoff","rate":400,"on_mean":"200ms","off_mean":"600ms"}],"topology":{"kind":"connected","n":2}}`,
		`{"churn":[{"at":"0s","active":1},{"at":"10s","active":2}],"topology":{"kind":"connected","n":2}}`,
		`{"capture":true,"capture_window":30,"topology":{"kind":"connected","n":10}}`,
		`{"duration":2.5,"topology":{"kind":"connected","n":1}}`,
		`{"duration":1e999,"topology":{"kind":"connected","n":1}}`,
		`{"scenarios":[{"topology":{"kind":"disc","n":1,"radius":1e308}}]}`,
		``,
		`null`,
		`[]`,
		`{"scenarios":null}`,
		`{"scheme":"TORA-CSMA","control":0,"detail":true,"topology":{"kind":"disc","n":4}}`,
		`{"scheme":"wTOP-CSMA","control":0.0123,"topology":{"kind":"connected","n":3}}`,
		`{"scheme":"IdleSense","control":0.5,"topology":{"kind":"connected","n":3}}`,
		`{"scheme":"EstimateN","detail":true,"topology":{"kind":"connected","n":3}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		su, err := Decode(data)
		if err != nil {
			if su != nil {
				t.Error("non-nil suite alongside an error")
			}
			return
		}
		// A decoded suite must be fully validated: re-validating is a
		// no-op and every scenario can build its topology description.
		if len(su.Scenarios) == 0 {
			t.Fatal("Decode returned an empty suite without error")
		}
		for i := range su.Scenarios {
			sp := &su.Scenarios[i]
			if err := sp.Validate(); err != nil {
				t.Fatalf("validated spec fails revalidation: %v", err)
			}
			if sp.Topology.N < 1 || sp.Topology.N > MaxStations {
				t.Fatalf("station count %d escaped validation", sp.Topology.N)
			}
			if _, err := BuildTopology(&sp.Topology, 1); err != nil {
				// Custom topologies may legitimately fail geometric
				// validation; that must surface as an error, which it
				// just did.
				if !strings.Contains(err.Error(), "topo:") {
					t.Fatalf("unexpected BuildTopology error: %v", err)
				}
			}
		}
	})
}

// A fixed control must name a finite value in its scheme's range, and
// only wTOP-CSMA and TORA-CSMA have one: anything else is an invalid
// spec, at validation and at engine assembly alike.
func TestControlValidation(t *testing.T) {
	ctl := func(v float64) *float64 { return &v }
	bad := []struct {
		scheme  string
		control *float64
	}{
		{scheme.DCF, ctl(0.1)},
		{scheme.IdleSense, ctl(0.1)},
		{scheme.SlowDecrease, ctl(0.1)},
		{scheme.EstimateN, ctl(0)},
		{"", ctl(0.5)},
		{scheme.WTOP, ctl(0)},
		{scheme.WTOP, ctl(-0.25)},
		{scheme.WTOP, ctl(1.0000001)},
		{scheme.TORA, ctl(-1e-300)},
		{scheme.TORA, ctl(2)},
		{scheme.WTOP, ctl(math.NaN())},
		{scheme.TORA, ctl(math.NaN())},
		{scheme.WTOP, ctl(math.Inf(1))},
		{scheme.TORA, ctl(math.Inf(-1))},
	}
	for _, tc := range bad {
		sp := Spec{Scheme: tc.scheme, Control: tc.control, Topology: TopologySpec{Kind: TopoConnected, N: 3}}
		if err := sp.Validate(); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%q control %v: Validate = %v, want ErrInvalidSpec", tc.scheme, *tc.control, err)
		}
		if _, err := EngineConfig(&sp, 1); err == nil {
			t.Errorf("%q control %v: the engine assembly accepted it", tc.scheme, *tc.control)
		}
	}
	for _, data := range []string{
		`{"scheme":"802.11","control":0.2,"topology":{"kind":"connected","n":3}}`,
		`{"scheme":"wTOP-CSMA","control":0,"topology":{"kind":"connected","n":3}}`,
		`{"scheme":"TORA-CSMA","control":1.5,"topology":{"kind":"connected","n":3}}`,
	} {
		if _, err := Decode([]byte(data)); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: Decode = %v, want ErrInvalidSpec", data, err)
		}
	}
	for _, good := range []struct {
		scheme  string
		control float64
	}{{scheme.WTOP, 1e-9}, {scheme.WTOP, 1}, {scheme.TORA, 0}, {scheme.TORA, 1}} {
		sp := Spec{Scheme: good.scheme, Control: ctl(good.control), Topology: TopologySpec{Kind: TopoConnected, N: 3}}
		if err := sp.Validate(); err != nil {
			t.Errorf("%s control %v rejected: %v", good.scheme, good.control, err)
		}
	}
}
