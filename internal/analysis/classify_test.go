package analysis

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// internalPackageDirs enumerates every directory under internal/ that
// holds Go source, as internal-relative slash paths ("svc/chaos").
// Testdata trees are fixtures with deliberately seeded violations, not
// packages the module builds, so they are skipped.
func internalPackageDirs(t *testing.T) []string {
	t.Helper()
	root, err := filepath.Abs("..") // internal/analysis -> internal
	if err != nil {
		t.Fatalf("abs: %v", err)
	}
	seen := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		seen[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatalf("walk internal/: %v", err)
	}
	var dirs []string
	for d := range seen {
		dirs = append(dirs, d)
	}
	return dirs
}

// TestSimClassificationCoversInternal is the drift gate for the
// determinism boundary: every package under internal/ must be
// explicitly inside (SimCritical) or outside (SimExempt, with a
// reason), so adding a package without deciding its contract fails
// here instead of silently escaping the determinism and inttime
// analyzers. Subpackages of an exempt subtree inherit
// the parent's exemption (SimCriticalPkg already treats them as
// non-critical); subpackages of a critical package do NOT inherit and
// must be classified on their own.
func TestSimClassificationCoversInternal(t *testing.T) {
	for _, dir := range internalPackageDirs(t) {
		parts := strings.Split(dir, "/")
		base := parts[len(parts)-1]
		if SimCritical[base] {
			continue
		}
		if _, ok := SimExempt[base]; ok {
			continue
		}
		exemptAncestor := false
		for _, p := range parts[:len(parts)-1] {
			if _, ok := SimExempt[p]; ok {
				exemptAncestor = true
				break
			}
		}
		if exemptAncestor {
			continue
		}
		t.Errorf("internal/%s is unclassified: add %q to analysis.SimCritical or to analysis.SimExempt with a reason (is it on the seed→row path or not?)", dir, base)
	}
}

// TestSimClassificationDisjointAndLive pins the two sets disjoint (an
// SimExempt entry would silently win via SimCriticalPkg, hiding the
// conflict) and free of stale entries that no longer name a package.
func TestSimClassificationDisjointAndLive(t *testing.T) {
	bases := map[string]bool{}
	for _, dir := range internalPackageDirs(t) {
		bases[PkgBase(dir)] = true
	}
	for base := range SimCritical {
		if _, ok := SimExempt[base]; ok {
			t.Errorf("%q is in both SimCritical and SimExempt; the exemption would win silently — pick one", base)
		}
		if !bases[base] {
			t.Errorf("SimCritical[%q] names no package under internal/ — stale entry?", base)
		}
	}
	for base, reason := range SimExempt {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("SimExempt[%q] has no reason; exemptions must say why", base)
		}
		if !bases[base] {
			t.Errorf("SimExempt[%q] names no package under internal/ — stale entry?", base)
		}
	}
}

// metricsImporters are the sim-critical packages allowed to import
// internal/metrics. Every other one can only hand its counts to a
// caller outside the boundary, as sweep.Counts does, so no sim code
// can read a metric back into a result. scenario keeps its write-only
// Metrics because the benchmark reads the runner's InFlight and
// Workers gauges; moving it off them and dropping this entry is part
// of ROADMAP item 1.
var metricsImporters = map[string]bool{"scenario": true}

// TestOnlyScenarioImportsMetrics keeps metrics pure observers by the
// package graph: it fails when a sim-critical package other than those
// in metricsImporters imports internal/metrics from non-test code.
func TestOnlyScenarioImportsMetrics(t *testing.T) {
	const metricsPath = "repro/internal/metrics"
	seen := map[string]bool{}
	for _, dir := range internalPackageDirs(t) {
		base := PkgBase(dir)
		if !SimCritical[base] {
			continue
		}
		files, err := filepath.Glob(filepath.Join("..", filepath.FromSlash(dir), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == metricsPath {
					seen[base] = true
					if !metricsImporters[base] {
						t.Errorf("%s imports %s: sim-critical code must hand its counts to a caller outside the boundary, not register metrics", name, metricsPath)
					}
				}
			}
		}
	}
	for base := range metricsImporters {
		if !seen[base] {
			t.Errorf("metricsImporters[%q] no longer imports %s: drop the entry", base, metricsPath)
		}
	}
}
