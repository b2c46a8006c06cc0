package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"testing"
)

// checkSrc parses and type-checks one source string as package path,
// resolving imports through the module's export data — the same
// pipeline the driver uses, minus the go-list pattern expansion.
func checkSrc(t *testing.T, path, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatalf("getwd: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: NewDepImporter(cwd, fset)}
	tpkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &Package{Path: path, Fset: fset, Files: []*ast.File{f}, Types: tpkg, TypesInfo: info}
}

// pkgFunc looks up a package-level function by name.
func pkgFunc(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	f, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("no function %q in %s", name, pkg.Path)
	}
	return f
}

// method looks up a named type's method by name.
func method(t *testing.T, pkg *Package, typeName, methodName string) *types.Func {
	t.Helper()
	tn, ok := pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
	if !ok {
		t.Fatalf("no type %q in %s", typeName, pkg.Path)
	}
	named := tn.Type().(*types.Named)
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == methodName {
			return m
		}
	}
	t.Fatalf("no method %s.%s", typeName, methodName)
	return nil
}

const cgSrc = `package cg

type runner interface{ Run() }

type fast struct{}

func (fast) Run() { shared() }

type slow struct{}

func (slow) Run() {}

func shared() {}

func drive(r runner) { r.Run() }

func worker() { helper() }
func helper() {}
`

func TestCallGraphStaticAndCHA(t *testing.T) {
	pkg := checkSrc(t, "cg", cgSrc)
	g := BuildCallGraph([]*Package{pkg})

	hasCallee := func(from, to *types.Func) bool { return g.callees[from][to] }

	fastRun := method(t, pkg, "fast", "Run")
	slowRun := method(t, pkg, "slow", "Run")
	shared := pkgFunc(t, pkg, "shared")
	drive := pkgFunc(t, pkg, "drive")

	if !hasCallee(fastRun, shared) {
		t.Errorf("fast.Run -> shared edge missing; callees = %v", g.callees[fastRun])
	}
	// CHA: the interface call in drive dispatches to every implementing
	// type in the loaded set.
	if !hasCallee(drive, fastRun) || !hasCallee(drive, slowRun) {
		t.Errorf("drive's interface call should resolve to both Run methods; callees = %v", g.callees[drive])
	}
	// Reachability follows the CHA edges: shared is reachable from drive
	// through fast.Run.
	if !g.Reachable(drive)[shared] {
		t.Errorf("shared should be reachable from drive through CHA dispatch")
	}
}

func TestCallGraphFunctionsDeterministic(t *testing.T) {
	pkg := checkSrc(t, "cg", cgSrc)
	g := BuildCallGraph([]*Package{pkg})
	fns := g.Functions()
	if len(fns) == 0 {
		t.Fatalf("no functions in graph")
	}
	for i := 1; i < len(fns); i++ {
		if funcKey(fns[i-1]) > funcKey(fns[i]) {
			t.Errorf("Functions() out of order: %s > %s", funcKey(fns[i-1]), funcKey(fns[i]))
		}
	}
	if fd := g.Decl(pkgFunc(t, pkg, "worker")); fd == nil || fd.Name.Name != "worker" {
		t.Errorf("Decl(worker) = %v, want the worker declaration", fd)
	}
	if p := g.PackageOf(pkgFunc(t, pkg, "worker")); p != pkg {
		t.Errorf("PackageOf(worker) = %v, want the loaded package", p)
	}
}

func TestFactsMemo(t *testing.T) {
	f := &Facts{}
	builds := 0
	get := func() int {
		return f.Memo("k", func() any { builds++; return builds }).(int)
	}
	if got := get(); got != 1 {
		t.Fatalf("first Memo = %d, want 1", got)
	}
	if got := get(); got != 1 {
		t.Fatalf("second Memo = %d, want the cached 1", got)
	}
	if builds != 1 {
		t.Fatalf("build ran %d times, want once", builds)
	}
}
