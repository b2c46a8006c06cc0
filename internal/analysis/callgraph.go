// Call-graph construction: the interprocedural substrate the lockorder
// analyzer stands on. The other wlanvet analyzers are single-function —
// fine for syntactic properties (a wall-clock call IS the bug) — but a
// lock-order inversion is a relationship between functions: a mutex
// held HERE while a callee three frames down locks ANOTHER one.
//
// The graph is class-hierarchy-analysis (CHA) style, built from
// go/types alone so the framework stays std-only:
//
//   - a static call (package function, method on a concrete receiver)
//     contributes one edge;
//   - a call through an interface method contributes an edge to the
//     corresponding method of every type in the loaded package set
//     that implements the interface — sound over the loaded set,
//     deliberately over-approximate (CHA never prunes by what a value
//     can actually be);
//   - a call through a plain function value contributes no edge (the
//     loader has no SSA, so func-typed dataflow is invisible).
//
// Function literals are attributed to their enclosing declaration:
// edges out of a closure body belong to the function that lexically
// contains it.
package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// CallGraph is the module-wide CHA call graph over every package in one
// driver run, shared between analyzers through Pass.Facts.
type CallGraph struct {
	// callees maps a function to the set of functions it may call.
	callees map[*types.Func]map[*types.Func]bool
	// decls maps a function object to its syntax (only for functions
	// whose source is loaded — not for dependencies seen through export
	// data).
	decls map[*types.Func]*ast.FuncDecl
	// pkgOf maps a loaded function to its Package, so analyzers can
	// chase a callee into a sibling package's syntax.
	pkgOf map[*types.Func]*Package
}

// Facts is the shared, whole-module analysis state computed once per
// driver run and handed to every Pass — the go/analysis pass.Facts
// idea collapsed to what lockorder needs.
type Facts struct {
	// CallGraph is the module-wide call graph, nil only in tests that
	// construct a Pass by hand.
	CallGraph *CallGraph

	memo map[string]any
}

// Memo returns the value cached under key, building it on first use.
// It is how an analyzer attaches derived module-wide state (for
// example lockorder's per-function acquisition summaries) to one
// driver run instead of recomputing it for every package. The driver
// is single-goroutine per run, so no locking.
func (f *Facts) Memo(key string, build func() any) any {
	if f.memo == nil {
		f.memo = map[string]any{}
	}
	if v, ok := f.memo[key]; ok {
		return v
	}
	v := build()
	f.memo[key] = v
	return v
}

// BuildCallGraph constructs the CHA call graph for the loaded packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		callees: map[*types.Func]map[*types.Func]bool{},
		decls:   map[*types.Func]*ast.FuncDecl{},
		pkgOf:   map[*types.Func]*Package{},
	}
	methods := collectMethodSets(pkgs)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				g.decls[fn] = fd
				g.pkgOf[fn] = pkg
				g.addEdges(pkg, fn, fd.Body, methods)
			}
		}
	}
	return g
}

// concreteMethod is one (named type, method) pair for CHA dispatch.
type concreteMethod struct {
	typ *types.Named
	fn  *types.Func
}

// collectMethodSets indexes every method of every named type declared
// in the loaded packages by method name — the candidate set CHA
// resolves interface calls against.
func collectMethodSets(pkgs []*Package) map[string][]concreteMethod {
	out := map[string][]concreteMethod{}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				out[m.Name()] = append(out[m.Name()], concreteMethod{named, m})
			}
		}
	}
	return out
}

// addEdges walks one function body recording call edges. Closures are
// attributed to fn.
func (g *CallGraph) addEdges(pkg *Package, fn *types.Func, body ast.Node, methods map[string][]concreteMethod) {
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			for _, callee := range g.resolve(pkg, call, methods) {
				g.addEdge(fn, callee)
			}
		}
		return true
	})
}

// resolve returns the possible callees of one call expression: the
// static target, or the CHA candidate set for an interface method call.
func (g *CallGraph) resolve(pkg *Package, call *ast.CallExpr, methods map[string][]concreteMethod) []*types.Func {
	var id *ast.Ident
	var sel *ast.SelectorExpr
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id, sel = fun.Sel, fun
	default:
		return nil
	}
	f, _ := pkg.TypesInfo.Uses[id].(*types.Func)
	if f == nil {
		return nil
	}
	// Interface dispatch: the selection's receiver is an interface, so
	// f is the abstract method. Resolve over every loaded type whose
	// method set satisfies the interface.
	if sel != nil {
		if s, ok := pkg.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
				var out []*types.Func
				out = append(out, f) // keep the abstract target for identity
				for _, cm := range methods[f.Name()] {
					if implementsFor(cm.typ, iface) {
						out = append(out, cm.fn)
					}
				}
				return out
			}
		}
	}
	return []*types.Func{f}
}

// implementsFor reports whether the named type (or a pointer to it)
// satisfies iface.
func implementsFor(named *types.Named, iface *types.Interface) bool {
	if types.Implements(named, iface) {
		return true
	}
	return types.Implements(types.NewPointer(named), iface)
}

func (g *CallGraph) addEdge(from, to *types.Func) {
	set := g.callees[from]
	if set == nil {
		set = map[*types.Func]bool{}
		g.callees[from] = set
	}
	set[to] = true
}

// funcKey is a stable, human-readable identity for ordering and
// diagnostics: "pkgpath.(Recv).Name" for methods, "pkgpath.Name" for
// functions.
func funcKey(f *types.Func) string {
	return f.FullName()
}

// Decl returns the loaded syntax for fn, or nil when fn comes from
// export data (a dependency outside the analyzed set).
func (g *CallGraph) Decl(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

// Functions returns every function with loaded syntax, sorted by
// FullName — the iteration order module-wide analyses (lockorder's
// summary pass) use so their derived state is deterministic.
func (g *CallGraph) Functions() []*types.Func {
	out := make([]*types.Func, 0, len(g.decls))
	for f := range g.decls {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return funcKey(out[i]) < funcKey(out[j]) })
	return out
}

// PackageOf returns the loaded package declaring fn, or nil.
func (g *CallGraph) PackageOf(fn *types.Func) *Package { return g.pkgOf[fn] }

// Reachable returns the set of functions reachable from the given
// roots (inclusive) through call edges.
func (g *CallGraph) Reachable(roots ...*types.Func) map[*types.Func]bool {
	seen := map[*types.Func]bool{}
	stack := append([]*types.Func(nil), roots...)
	for _, r := range roots {
		seen[r] = true
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for callee := range g.callees[f] {
			if !seen[callee] {
				seen[callee] = true
				stack = append(stack, callee)
			}
		}
	}
	return seen
}
