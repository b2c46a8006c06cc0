package analysis

import (
	"fmt"
	"go/types"
	"strings"
)

// Surface is the exported API of one package as its users see it: the
// package's exported package-level objects, plus every exported named
// type of the same module that they reach through an alias target, a
// struct field, a parameter, a result or a method signature, at any
// depth. A type brings its exported fields and its exported methods
// (Methods), so removing one of them changes the surface; unexported
// fields do not take part.
type Surface struct {
	// Pkg is the package whose surface this is.
	Pkg *types.Package
	// Objects are Pkg's exported package-level objects, sorted by name.
	Objects []types.Object
	// Reached are the module's exported named types outside Pkg that
	// Objects reach, in the order a walk from Objects first meets them.
	Reached []*types.TypeName
}

// LoadSurface loads the package in dir through Load and computes its
// surface.
func LoadSurface(dir string) (*Surface, error) {
	pkgs, err := Load(dir, ".")
	if err != nil {
		return nil, err
	}
	if len(pkgs) != 1 {
		return nil, fmt.Errorf("analysis: %d packages in %s, want exactly 1", len(pkgs), dir)
	}
	p := pkgs[0]
	s := &Surface{Pkg: p.Types}
	w := &walker{module: p.Module, root: p.Types, seen: map[*types.TypeName]bool{}}
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			s.Objects = append(s.Objects, obj)
			w.typ(obj.Type())
		}
	}
	s.Reached = w.reached
	return s, nil
}

// Methods returns the exported methods in the method set of *T, those
// promoted through embedded fields included, in name order. An
// interface's methods are part of its type, so for one it returns none.
func Methods(t types.Type) []*types.Func {
	if types.IsInterface(t) {
		return nil
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	var out []*types.Func
	for i := range ms.Len() {
		if f := ms.At(i).Obj().(*types.Func); f.Exported() {
			out = append(out, f)
		}
	}
	return out
}

// walker collects the named types of a module that a surface reaches.
type walker struct {
	module  string
	root    *types.Package
	seen    map[*types.TypeName]bool
	reached []*types.TypeName
}

// typeName visits an exported type name of the module once: it records
// it (unless it belongs to the root package, whose objects the surface
// lists already) and walks its exported fields and methods.
func (w *walker) typeName(tn *types.TypeName) {
	pkg := tn.Pkg()
	if w.seen[tn] || !tn.Exported() || pkg == nil ||
		(pkg.Path() != w.module && !strings.HasPrefix(pkg.Path(), w.module+"/")) {
		return
	}
	w.seen[tn] = true
	if pkg != w.root {
		w.reached = append(w.reached, tn)
	}
	if named, ok := tn.Type().(*types.Named); ok {
		w.typ(named.Underlying())
		for _, m := range Methods(named) {
			w.typ(m.Type())
		}
	}
}

// typ walks the parts of t that a user can reach.
func (w *walker) typ(t types.Type) {
	switch t := t.(type) {
	case *types.Alias:
		w.typeName(t.Obj())
		w.typ(t.Rhs())
	case *types.Named:
		w.typeName(t.Origin().Obj())
		for i := range t.TypeArgs().Len() {
			w.typ(t.TypeArgs().At(i))
		}
	case *types.Pointer:
		w.typ(t.Elem())
	case *types.Slice:
		w.typ(t.Elem())
	case *types.Array:
		w.typ(t.Elem())
	case *types.Chan:
		w.typ(t.Elem())
	case *types.Map:
		w.typ(t.Key())
		w.typ(t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := range tup.Len() {
				w.typ(tup.At(i).Type())
			}
		}
	case *types.Struct:
		for i := range t.NumFields() {
			if f := t.Field(i); f.Exported() {
				w.typ(f.Type())
			}
		}
	case *types.Interface:
		for i := range t.NumMethods() {
			if m := t.Method(i); m.Exported() {
				w.typ(m.Type())
			}
		}
	}
}
