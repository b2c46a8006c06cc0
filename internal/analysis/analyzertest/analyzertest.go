// Package analyzertest runs a wlanvet analyzer over checked-in testdata
// packages and diffs its diagnostics against expectations written in
// the source, mirroring golang.org/x/tools/go/analysis/analysistest:
//
//	t0 := time.Now() // want `wall clock`
//
// Each `// want` comment expects exactly one diagnostic on its line
// whose message matches the quoted or backquoted regular expression.
// Diagnostics without a matching want, and wants without a matching
// diagnostic, fail the test. Testdata packages live under
// testdata/src/<name> next to the analyzer; their package path is just
// <name>, so a directory called "slotsim" falls under the sim-critical
// scope exactly like the real package, and sibling directories are
// importable by name.
// Suppression runs through the same //wlanvet:allow machinery as the
// wlanvet driver, so the escape hatch is testable here too.
package analyzertest

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// testImporter resolves testdata-sibling imports from source and
// everything else (std, module packages) from gc export data.
type testImporter struct {
	root    string // testdata/src
	fset    *token.FileSet
	dep     *analysis.DepImporter
	local   map[string]*analysis.Package
	loading map[string]bool
}

func (ti *testImporter) load(path string) (*analysis.Package, error) {
	if p, ok := ti.local[path]; ok {
		return p, nil
	}
	dir := filepath.Join(ti.root, path)
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return nil, fmt.Errorf("analyzertest: no testdata package %q under %s", path, ti.root)
	}
	if ti.loading[path] {
		return nil, fmt.Errorf("analyzertest: import cycle through %q", path)
	}
	ti.loading[path] = true
	defer delete(ti.loading, path)
	p, err := analysis.CheckDir(ti.fset, ti, path, dir)
	if err != nil {
		return nil, err
	}
	ti.local[path] = p
	return p, nil
}

// Import implements types.Importer.
func (ti *testImporter) Import(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(ti.root, path)); err == nil && st.IsDir() {
		p, err := ti.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return ti.dep.Import(path)
}

// ImportFrom implements types.ImporterFrom.
func (ti *testImporter) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	return ti.Import(path)
}

// wantRe extracts the expectation from a `// want` comment.
var wantRe = regexp.MustCompile("// want (`([^`]*)`|\"([^\"]*)\")")

type want struct {
	re      *regexp.Regexp
	matched bool
}

// Run applies the analyzer to each named testdata package and reports
// every mismatch between its diagnostics and the `// want` comments
// through t.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("analyzertest: %v", err)
	}
	// Import resolution for non-local paths needs a module context; the
	// analyzer package directory (the test's working directory) is
	// inside the module, so the go command run from here sees go.mod.
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatalf("analyzertest: %v", err)
	}
	fset := token.NewFileSet()
	ti := &testImporter{
		root:    root,
		fset:    fset,
		dep:     analysis.NewDepImporter(cwd, fset),
		local:   map[string]*analysis.Package{},
		loading: map[string]bool{},
	}
	for _, name := range pkgs {
		pkg, err := ti.load(name)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		findings, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		checkWants(t, pkg, findings)
	}
}

// checkWants diffs findings against the package's want comments.
func checkWants(t *testing.T, pkg *analysis.Package, findings []analysis.Finding) {
	t.Helper()
	wants := map[string][]*want{} // "file:line" -> expectations
	key := func(file string, line int) string {
		return fmt.Sprintf("%s:%d", filepath.Base(file), line)
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.Contains(c.Text, "// want") {
						pos := pkg.Fset.Position(c.Pos())
						t.Errorf("%s: malformed want comment %q", pos, c.Text)
					}
					continue
				}
				expr := m[2]
				if expr == "" {
					expr = m[3]
				}
				re, err := regexp.Compile(expr)
				if err != nil {
					pos := pkg.Fset.Position(c.Pos())
					t.Errorf("%s: bad want regexp %q: %v", pos, expr, err)
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key(pos.Filename, pos.Line)
				wants[k] = append(wants[k], &want{re: re})
			}
		}
	}
	for _, f := range findings {
		k := key(f.Pos.Filename, f.Pos.Line)
		var hit *want
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(f.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", f.Pos, f.Analyzer, f.Message)
			continue
		}
		hit.matched = true
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, w.re)
			}
		}
	}
}
