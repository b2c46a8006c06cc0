package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed are the exported identifiers under internal/ that
// stay although no non-test code of the module uses them, keyed by
// internal-relative package path (the whole package) or by objectKey
// without the "repro/internal/" prefix.
var testOnlyAllowed = map[string]string{
	"model":                                  "test-support package: the closed-form models the engine tests check against",
	"svc/chaos":                              "test-support package: the fault-injecting transport of the svc tests",
	"analysis/analyzertest":                  "test-support package: the harness of the analyzer tests",
	"sweep.Cache.Get":                        "called by bench/, its own module, which ./... does not load",
	"sweep.Cache.Put":                        "called by bench/, its own module, which ./... does not load",
	"svc.Coordinator.Done":                   "called by bench/, its own module, which ./... does not load",
	"mac.AttemptReporter":                    "kept for the per-attempt engine hook of ROADMAP item 11",
	"mac.AttemptReporter.AttemptProbability": "kept for the per-attempt engine hook of ROADMAP item 11",
}

// TestNoTestOnlyExports fails on any exported identifier under
// internal/ that only tests use: a package-level object or a method
// that no non-test code of the module names, that is not part of the
// wlan surface (LoadSurface) and that implements no interface non-test
// code uses. Test-only access belongs in an export_test.go file of the
// package, where it is out of the production API. Struct fields are out
// of scope: encoding/json reads them without naming them.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "repro/internal/"
	allowed := map[string]bool{}
	for k := range testOnlyAllowed {
		allowed[prefix+k] = true
	}
	for _, k := range testOnlyExports(t, root, filepath.Join(root, "wlan"), allowed) {
		t.Errorf("%s is exported but only tests use it: move it into an export_test.go, delete it, or allow it with a reason", k)
	}
}

// TestTestOnlyExportsSeeded runs the check on a small module: an
// exported method only a test calls is reported; one that non-test code
// calls, one that implements a used interface, one that implements
// fmt.Stringer and one on a type the surface reaches are not.
func TestTestOnlyExportsSeeded(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.24\n",
		"api/api.go": `package api

import (
	"fmt"

	"example.com/m/internal/in"
)

func Open() *in.Reached { return nil }

func Show(v any) string { return fmt.Sprint(v) }

func Use(s in.Shape) float64 { return in.Area(s) + in.Used{}.Called() }
`,
		"internal/in/in.go": `package in

type Shape interface{ Area() float64 }

func Area(s Shape) float64 { return s.Area() }

type Square struct{ Side float64 }

func (q Square) Area() float64 { return q.Side * q.Side }

func (q Square) String() string { return "square" }

type Used struct{}

func (Used) Called() float64 { return 0 }

func (Used) TestOnly() int { return 1 }

type Reached struct{}

func (*Reached) Close() error { return nil }
`,
		"internal/in/in_test.go": `package in

import "testing"

func TestIn(t *testing.T) { _ = Used{}.TestOnly() + int(Square{}.Area()) }
`,
	} {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := testOnlyExports(t, root, filepath.Join(root, "api"), nil)
	want := []string{"example.com/m/internal/in.Square", "example.com/m/internal/in.Used.TestOnly"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("test-only exports = %q, want %q", got, want)
	}
}

// testOnlyExports loads every package of the module in dir, without
// tests, and returns the sorted keys (objectKey) of the exported
// package-level objects and methods under internal/ that nothing uses.
// An allowed key counts as used; an allowed package path exempts the
// package.
func testOnlyExports(t *testing.T, dir, surfaceDir string, allowed map[string]bool) []string {
	t.Helper()
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	surface, err := LoadSurface(surfaceDir)
	if err != nil {
		t.Fatal(err)
	}

	// Objects are compared by key, not identity: Load checks each
	// package from source but imports it elsewhere from export data.
	// A method declaration names its receiver type, which is no use of
	// the type.
	used := map[string]bool{}
	maps.Copy(used, allowed)
	recvs := map[*ast.Ident]bool{}
	var called []*types.Func
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recvs[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range p.TypesInfo.Uses {
			if recvs[id] {
				continue
			}
			used[objectKey(obj)] = true
			if f, ok := obj.(*types.Func); ok {
				called = append(called, f)
			}
		}
	}
	for _, tn := range surface.Reached {
		used[objectKey(tn)] = true
		for _, m := range append(Methods(tn.Type()), interfaceMethods(tn.Type())...) {
			used[objectKey(m)] = true
		}
	}

	// The interfaces that non-test code uses: those it names, those it
	// passes values as, and those the standard library finds by a
	// dynamic type assertion.
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.TypesInfo.Defs {
			if tn, ok := obj.(*types.TypeName); ok && used[objectKey(tn)] {
				addIface(tn.Type())
			}
		}
	}
	for _, f := range called {
		params := f.Type().(*types.Signature).Params()
		for i := range params.Len() {
			addIface(params.At(i).Type())
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	std := map[string][]string{
		"fmt":           {"Stringer"},
		"encoding":      {"TextMarshaler", "TextUnmarshaler"},
		"encoding/json": {"Marshaler", "Unmarshaler"},
	}
	for _, p := range allImports(pkgs) {
		for _, name := range std[p.Path()] {
			addIface(p.Scope().Lookup(name).Type())
		}
	}

	var out []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, p.Module+"/internal/") || allowed[p.Path] {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[objectKey(obj)] {
				out = append(out, objectKey(obj))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			methods := interfaceMethods(named)
			for i := range named.NumMethods() {
				methods = append(methods, named.Method(i))
			}
			for _, m := range methods {
				if m.Exported() && !used[objectKey(m)] && !implementsUsed(named, m, ifaces) {
					out = append(out, objectKey(m))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// objectKey names an object the same way whichever package's view of
// it the type checker holds: "path.Name" for a package-level object,
// "path.Type.Method" for a method, "" for anything else.
func objectKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
			return ""
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// interfaceMethods returns the methods an interface type declares.
func interfaceMethods(t types.Type) []*types.Func {
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for i := range it.NumExplicitMethods() {
		out = append(out, it.ExplicitMethod(i))
	}
	return out
}

// implementsUsed reports whether m, a method of t, is a method of an
// interface in ifaces that t or *t implements. Signatures are compared
// as fully qualified strings, which do not depend on which view of a
// package the checker holds.
func implementsUsed(t *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	if types.IsInterface(t) {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	for _, it := range ifaces {
		declared, implemented := false, true
		for i := range it.NumMethods() {
			im := it.Method(i)
			declared = declared || im.Name() == m.Name()
			sel := ms.Lookup(im.Pkg(), im.Name())
			implemented = implemented && sel != nil && signature(sel.Obj().Type()) == signature(im.Type())
		}
		if declared && implemented {
			return true
		}
	}
	return false
}

// signature renders a method's signature without parameter names and
// with every package path in full.
func signature(t types.Type) string {
	sig := t.(*types.Signature)
	unnamed := func(tup *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, tup.Len())
		for i := range vars {
			vars[i] = types.NewParam(token.NoPos, nil, "", tup.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	return types.TypeString(types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic()), nil)
}

// allImports returns every package the loaded packages import,
// directly or not.
func allImports(pkgs []*Package) []*types.Package {
	seen := map[string]*types.Package{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p.Path()] != nil {
			return
		}
		seen[p.Path()] = p
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	var out []*types.Package
	for _, p := range seen {
		out = append(out, p)
	}
	return out
}
