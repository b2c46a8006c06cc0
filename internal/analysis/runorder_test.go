package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"testing"
)

// checkSrc parses and type-checks one import-free source string as
// package path.
func checkSrc(t *testing.T, path, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{}
	tpkg, err := new(types.Config).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &Package{Path: path, Fset: fset, Files: []*ast.File{f}, Types: tpkg, TypesInfo: info}
}

// TestRunOrdersAcrossPackages pins the multi-package contract: however
// the loader enumerated the patterns, Run returns ONE aggregated
// finding list sorted by package path first, then position — so a
// two-pattern wlanvet invocation and its reversal print byte-identical
// reports (and -json output is schema-stable for CI diffing).
func TestRunOrdersAcrossPackages(t *testing.T) {
	marker := &Analyzer{
		Name: "marker",
		Doc:  "reports every file's package clause",
		Run: func(p *Pass) error {
			for _, f := range p.Files {
				p.Reportf(f.Name.Pos(), "seen %s", p.Pkg.Path())
			}
			return nil
		},
	}
	late := checkSrc(t, "zz/late", "package late\n")
	early := checkSrc(t, "aa/early", "package early\n")

	paths := func(fs []Finding) []string {
		var out []string
		for _, f := range fs {
			out = append(out, f.PkgPath)
		}
		return out
	}

	fwd, err := Run([]*Package{early, late}, []*Analyzer{marker})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rev, err := Run([]*Package{late, early}, []*Analyzer{marker})
	if err != nil {
		t.Fatalf("Run (reversed): %v", err)
	}
	want := []string{"aa/early", "zz/late"}
	if got := paths(fwd); !reflect.DeepEqual(got, want) {
		t.Errorf("findings ordered %v, want %v (package path is the primary key)", got, want)
	}
	if !reflect.DeepEqual(fwd, rev) {
		t.Errorf("load order leaked into the report:\n forward: %v\nreversed: %v", fwd, rev)
	}
}
