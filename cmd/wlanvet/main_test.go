package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// testdataWd pins the working directory run() sees to testdata/src, so
// the fixture packages load through the real go-list pipeline with
// their directory base ("slotsim") deciding analyzer scope.
func testdataWd(t *testing.T) func() (string, error) {
	t.Helper()
	wd, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("abs: %v", err)
	}
	return func() (string, error) { return wd, nil }
}

func TestRunSeededViolation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./slotsim"}, testdataWd(t), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 on a seeded violation\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	// The finding must name file, line and column, go-vet style.
	loc := regexp.MustCompile(`slotsim\.go:\d+:\d+: \[inttime\] narrowing conversion int\(\.\.\.\)`)
	if !loc.MatchString(stdout.String()) {
		t.Errorf("report does not name the seeded violation's file:line:col:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "1 finding(s)") {
		t.Errorf("stderr summary missing:\n%s", stderr.String())
	}
}

func TestRunCleanPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./clean"}, testdataWd(t), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 on clean input\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run printed findings:\n%s", stdout.String())
	}
}

func TestRunJSONSchema(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./slotsim"}, testdataWd(t), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (-json keeps the exit contract)\nstderr: %s", code, stderr.String())
	}
	// Decode generically so a renamed or dropped field fails loudly: the
	// key set is a published contract (CI's ::error annotation step).
	var raw []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &raw); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(raw) == 0 {
		t.Fatalf("-json array empty, want the seeded finding")
	}
	wantKeys := []string{"analyzer", "col", "file", "line", "message"}
	for i, el := range raw {
		var keys []string
		for k := range el {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != strings.Join(wantKeys, ",") {
			t.Errorf("element %d keys = %v, want exactly %v (schema-stable contract)", i, keys, wantKeys)
		}
	}
	first := raw[0]
	if got, _ := first["analyzer"].(string); got != "inttime" {
		t.Errorf("analyzer = %q, want inttime", got)
	}
	if file, _ := first["file"].(string); !strings.HasSuffix(file, "slotsim.go") {
		t.Errorf("file = %q, want .../slotsim.go", file)
	}
	if line, ok := first["line"].(float64); !ok || line < 1 {
		t.Errorf("line = %v, want a positive integer", first["line"])
	}
	if col, ok := first["col"].(float64); !ok || col < 1 {
		t.Errorf("col = %v, want a positive integer", first["col"])
	}
}

func TestRunJSONCleanIsEmptyArray(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./clean"}, testdataWd(t), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want [] (an array, never null)", got)
	}
}

func TestRunListsAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, testdataWd(t), &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	var want []string
	for _, a := range analyzers {
		want = append(want, a.Name)
	}
	if strings.Join(listed, ",") != strings.Join(want, ",") {
		t.Errorf("-list names %v, want exactly %v", listed, want)
	}
}
