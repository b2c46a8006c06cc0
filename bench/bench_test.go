package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the harness binary when a
// timed run re-executes itself to start a repetition.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	b := &benchmarkFile{}
	if err := dec.Decode(b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkFileMatchesHarness pins BENCHMARK.json to the harness:
// the same workloads and the same metric names and units, every name
// well formed and used once.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b := loadBenchmark(t)
	var names, wl []string
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
		names = append(names, w.Name)
	}
	if strings.Join(wl, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", wl, workloadNames)
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		names = append(names, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s with lower better")
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
		names = append(names, m.Name)
	}
	if !equalDefs(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", e2e, endToEnd)
	}
	if !equalDefs(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, harness %v", layer, perLayer)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     1,
		trace:    trace,
		spans:    filepath.Join(t.TempDir(), "spans.json"),
		tiny:     true,
		minReps:  1,
		workDir:  t.TempDir(),
	}
}

// checkReport asserts a run is correct and printed exactly the wanted
// metrics, each a finite number in its unit.
func checkReport(t *testing.T, rep *report, want []metricDef) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("printed %d metrics, want %d", len(rep.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := rep.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s in %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.name, m.Value)
		}
	}
}

// TestWorkloadsSmoke times one tiny repetition of every workload, after
// the untimed warm-up one, each in a child process, and checks that the
// oracles pass and every end-to-end metric is printed, positive.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			rep, err := run(tinyOptions(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, endToEnd)
			for name, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// TestTracedSmoke runs the traced ledger at test size: it must reconcile
// with the untraced rows, print every per-layer metric, and write its
// spans.
func TestTracedSmoke(t *testing.T) {
	o := tinyOptions(t, campaignSmall, true)
	rep, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, perLayer)
	data, err := os.ReadFile(o.spans)
	if err != nil {
		t.Fatal(err)
	}
	var f struct{ Spans []span }
	if err := json.Unmarshal(data, &f); err != nil || len(f.Spans) == 0 {
		t.Fatalf("spans file: %d spans, %v", len(f.Spans), err)
	}
}

// TestCorruptedRowFails changes one byte of one row's cache key and
// checks that both byte-identity checks catch it: the repetition
// oracle, naming the workload, and the traced pass's reconciliation.
func TestCorruptedRowFails(t *testing.T) {
	in, err := prepare(paperHidden, 1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	good, sink, err := runRepetition(context.Background(), in, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	rows := sink.keep.Bytes()
	bad := bytes.Clone(rows)
	at := bytes.LastIndex(bad, []byte(`"key":"`)) + len(`"key":"`)
	if bad[at] == '0' {
		bad[at] = '1'
	} else {
		bad[at] = '0'
	}
	sum := sha256.Sum256(bad)
	corrupt := &repResult{SHAs: []string{hex.EncodeToString(sum[:])}}

	if err := verify(in, []*repResult{good, good}); err != nil {
		t.Fatalf("identical repetitions fail: %v", err)
	}
	err = verify(in, []*repResult{good, corrupt})
	if err == nil || !strings.Contains(err.Error(), paperHidden) {
		t.Errorf("corrupted row: verify = %v, want an error naming %s", err, paperHidden)
	}

	pass, err := tracedPass(context.Background(), in, bad, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if err := pass(); err == nil || !strings.Contains(err.Error(), "differs from the untraced row") {
		t.Errorf("traced pass against a corrupted row: %v", err)
	}
}
