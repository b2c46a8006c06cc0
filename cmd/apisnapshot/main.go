// Command apisnapshot renders the exported surface of a Go package as a
// deterministic, sorted text snapshot — one declaration per entry, doc
// comments and unexported details elided — and either writes it or
// diffs it against the committed copy.
//
// It is the repository's API-compatibility gate: wlan/api.txt is the
// committed snapshot of the public wlan package, CI runs
// `apisnapshot -check` on every push, and any unreviewed change to the
// exported surface — a removed function, a changed signature, a
// retyped field — fails the build. Regenerate deliberately with
// `make api` after an intentional surface change.
//
// An alias to a type of another package in the same module is part of
// the surface too: its entry carries the target's declaration and the
// target's exported methods, indented under the alias line, so a field
// or method removed from the aliased type drifts the snapshot as well.
//
//	apisnapshot                  # rewrite wlan/api.txt
//	apisnapshot -check           # exit 1 if wlan/api.txt is stale
//	apisnapshot -dir ./internal/sweep -snapshot /tmp/sweep.txt
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var (
		dir      = flag.String("dir", "wlan", "package directory to snapshot")
		snapshot = flag.String("snapshot", "", "snapshot file (default <dir>/api.txt)")
		check    = flag.Bool("check", false, "compare against the committed snapshot instead of writing; non-zero exit on drift")
	)
	flag.Parse()
	if *snapshot == "" {
		*snapshot = filepath.Join(*dir, "api.txt")
	}

	rendered, err := render(*dir)
	if err != nil {
		fatalf("%v", err)
	}

	if !*check {
		if err := os.WriteFile(*snapshot, rendered, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s (%d declarations)\n", *snapshot, bytes.Count(rendered, []byte("\n\n")))
		return
	}
	committed, err := os.ReadFile(*snapshot)
	if err != nil {
		fatalf("%v (generate it with `make api`)", err)
	}
	if bytes.Equal(committed, rendered) {
		fmt.Printf("%s is current\n", *snapshot)
		return
	}
	fmt.Fprintf(os.Stderr, "apisnapshot: the exported surface of %s drifted from %s\n", *dir, *snapshot)
	fmt.Fprintf(os.Stderr, "apisnapshot: if the change is intentional, regenerate with `make api` and commit\n\n")
	diff(os.Stderr, committed, rendered)
	os.Exit(1)
}

// render parses the package in dir and returns its sorted exported
// surface.
func render(dir string) ([]byte, error) {
	fset := token.NewFileSet()
	pkgName, files, err := parsePackage(fset, dir)
	if err != nil {
		return nil, err
	}
	mod, err := findModule(dir)
	if err != nil {
		return nil, err
	}

	var entries []string
	for _, f := range files {
		for _, decl := range f.Decls {
			for _, e := range renderDecl(fset, decl) {
				if e.alias != nil {
					target, err := mod.renderAlias(fset, f, e.alias)
					if err != nil {
						return nil, err
					}
					e.text += target
				}
				entries = append(entries, e.text)
			}
		}
	}
	sort.Strings(entries)

	var out bytes.Buffer
	fmt.Fprintf(&out, "# Exported API of package %s.\n", pkgName)
	fmt.Fprintf(&out, "# Generated by `make api` (cmd/apisnapshot); diffed in CI. Do not edit.\n")
	for _, e := range entries {
		out.WriteString("\n")
		out.WriteString(e)
		out.WriteString("\n")
	}
	return out.Bytes(), nil
}

// parsePackage parses the non-test Go files of the one package in dir.
func parsePackage(fset *token.FileSet, dir string) (string, []*ast.File, error) {
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return "", nil, err
	}
	if len(pkgs) != 1 {
		return "", nil, fmt.Errorf("apisnapshot: %d packages in %s, want exactly 1", len(pkgs), dir)
	}
	var files []*ast.File
	var pkgName string
	for name, pkg := range pkgs {
		pkgName = name
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return pkgName, files, nil
}

// entry is one rendered declaration; alias is the target of a type
// alias to another package's type (pkg.Name), whose declaration the
// entry still has to carry.
type entry struct {
	text  string
	alias *ast.SelectorExpr
}

// renderDecl returns the snapshot entries (zero or more) of one
// top-level declaration.
func renderDecl(fset *token.FileSet, decl ast.Decl) []entry {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedReceiver(d) {
			return nil
		}
		return []entry{{text: renderFunc(fset, d)}}
	case *ast.GenDecl:
		var out []entry
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.ValueSpec:
				for _, v := range renderValues(fset, d.Tok, sp) {
					out = append(out, entry{text: v})
				}
			case *ast.TypeSpec:
				if !sp.Name.IsExported() {
					continue
				}
				e := entry{text: renderType(fset, sp)}
				if sel, ok := sp.Type.(*ast.SelectorExpr); ok && sp.Assign != token.NoPos {
					e.alias = sel
				}
				out = append(out, e)
			}
		}
		return out
	}
	return nil
}

func renderFunc(fset *token.FileSet, d *ast.FuncDecl) string {
	fn := *d
	fn.Doc = nil
	fn.Body = nil
	return printNode(fset, &fn)
}

// module is the Go module enclosing the snapshotted package; alias
// targets inside it are parsed from source.
type module struct {
	root, path string
	pkgs       map[string][]*ast.File // parsed packages by import path
}

// findModule walks up from dir to the nearest go.mod.
func findModule(dir string) (*module, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return &module{root: d, path: strings.Trim(strings.TrimSpace(rest), `"`), pkgs: map[string][]*ast.File{}}, nil
				}
			}
			return nil, fmt.Errorf("apisnapshot: no module line in %s", filepath.Join(d, "go.mod"))
		}
		parent := filepath.Dir(d)
		if parent == d {
			return nil, fmt.Errorf("apisnapshot: no go.mod above %s", dir)
		}
		d = parent
	}
}

// renderAlias renders the target of the alias sel, written in file f,
// as indented lines to append to the alias entry: the target's
// declaration, then its exported methods sorted. Targets outside the
// module render as nothing.
func (m *module) renderAlias(fset *token.FileSet, f *ast.File, sel *ast.SelectorExpr) (string, error) {
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", nil
	}
	var importPath string
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if (imp.Name != nil && imp.Name.Name == x.Name) || (imp.Name == nil && path.Base(p) == x.Name) {
			importPath = p
		}
	}
	rel, ok := strings.CutPrefix(importPath, m.path+"/")
	if !ok {
		return "", nil
	}
	files, ok := m.pkgs[importPath]
	if !ok {
		var err error
		if _, files, err = parsePackage(fset, filepath.Join(m.root, filepath.FromSlash(rel))); err != nil {
			return "", err
		}
		m.pkgs[importPath] = files
	}

	var decl string
	var methods []string
	for _, tf := range files {
		for _, d := range tf.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && receiverName(d) == sel.Sel.Name {
					methods = append(methods, renderFunc(fset, d))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if sp, ok := spec.(*ast.TypeSpec); ok && sp.Name.Name == sel.Sel.Name {
						decl = renderType(fset, sp)
					}
				}
			}
		}
	}
	if decl == "" {
		return "", fmt.Errorf("apisnapshot: alias target %s.%s not found in %s", x.Name, sel.Sel.Name, importPath)
	}
	sort.Strings(methods)
	var b strings.Builder
	for _, s := range append([]string{decl}, methods...) {
		for _, line := range strings.Split(s, "\n") {
			if line != "" { // blank lines left where field docs were
				b.WriteString("\n\t")
				b.WriteString(line)
			}
		}
	}
	return b.String(), nil
}

// exportedReceiver reports whether a declaration is a plain function or
// a method on an exported type.
func exportedReceiver(d *ast.FuncDecl) bool {
	return d.Recv == nil || ast.IsExported(receiverName(d))
}

// receiverName returns the base type name of a method's receiver, or ""
// for a plain function.
func receiverName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// renderValues emits one "const Name Type = Value" (or var) entry per
// exported name of a value spec.
func renderValues(fset *token.FileSet, tok token.Token, sp *ast.ValueSpec) []string {
	var out []string
	for i, name := range sp.Names {
		if !name.IsExported() {
			continue
		}
		var b strings.Builder
		b.WriteString(tok.String())
		b.WriteString(" ")
		b.WriteString(name.Name)
		if sp.Type != nil {
			b.WriteString(" ")
			b.WriteString(printNode(fset, sp.Type))
		}
		if i < len(sp.Values) {
			b.WriteString(" = ")
			b.WriteString(printNode(fset, sp.Values[i]))
		}
		out = append(out, b.String())
	}
	return out
}

// renderType prints a type declaration with unexported struct fields
// and interface methods elided (a count marker keeps the existence of
// unexported interface methods, but not their shape, in the snapshot).
func renderType(fset *token.FileSet, sp *ast.TypeSpec) string {
	cp := *sp
	cp.Doc = nil
	cp.Comment = nil
	cp.Type = elide(cp.Type)
	assign := " "
	if sp.Assign != token.NoPos {
		assign = " = "
	}
	// TypeSpec carries Assign as a position; print manually so the "="
	// of aliases survives the position-free re-print.
	return "type " + cp.Name.Name + printTypeParams(fset, cp.TypeParams) + assign + printNode(fset, cp.Type)
}

func printTypeParams(fset *token.FileSet, fl *ast.FieldList) string {
	if fl == nil || len(fl.List) == 0 {
		return ""
	}
	var parts []string
	for _, f := range fl.List {
		var names []string
		for _, n := range f.Names {
			names = append(names, n.Name)
		}
		parts = append(parts, strings.Join(names, ", ")+" "+printNode(fset, f.Type))
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// elide strips unexported members from struct and interface types.
func elide(t ast.Expr) ast.Expr {
	switch x := t.(type) {
	case *ast.StructType:
		cp := *x
		cp.Fields = elideFields(x.Fields, false)
		return &cp
	case *ast.InterfaceType:
		cp := *x
		cp.Methods = elideFields(x.Methods, true)
		return &cp
	}
	return t
}

func elideFields(fl *ast.FieldList, iface bool) *ast.FieldList {
	if fl == nil {
		return nil
	}
	out := &ast.FieldList{Opening: token.Pos(1), Closing: token.Pos(2)}
	hidden := 0
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			// Embedded field or embedded interface: keep if its base
			// name is exported.
			if embeddedExported(f.Type) {
				out.List = append(out.List, cleanField(f))
			} else {
				hidden++
			}
			continue
		}
		var kept []*ast.Ident
		for _, n := range f.Names {
			if n.IsExported() {
				kept = append(kept, n)
			} else {
				hidden++
			}
		}
		if len(kept) > 0 {
			cf := cleanField(f)
			cf.Names = kept
			out.List = append(out.List, cf)
		}
	}
	if iface && hidden > 0 {
		// A synthetic marker: an interface with unexported methods
		// cannot be implemented outside its package, which users see.
		// Unexported struct fields are not marked, so adding or removing
		// one leaves the snapshot as it is.
		out.List = append(out.List, &ast.Field{
			Names: []*ast.Ident{{Name: "_"}},
			Type:  &ast.Ident{Name: fmt.Sprintf("[%d unexportedMethods]", hidden)},
		})
	}
	return out
}

func cleanField(f *ast.Field) *ast.Field {
	cf := *f
	cf.Doc = nil
	cf.Comment = nil
	return &cf
}

// embeddedExported reports whether an embedded field's type name is
// exported (selector expressions — pkg.Type — always are).
func embeddedExported(t ast.Expr) bool {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.SelectorExpr:
			return x.Sel.IsExported()
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}

// printNode renders an AST node through go/printer with gofmt-like
// settings, normalising position-dependent spacing.
func printNode(fset *token.FileSet, node any) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}
	if err := cfg.Fprint(&buf, fset, node); err != nil {
		fatalf("print: %v", err)
	}
	return buf.String()
}

// diff prints a minimal line diff (removed/added) between two
// snapshots.
func diff(w *os.File, old, new []byte) {
	oldSet := map[string]bool{}
	newSet := map[string]bool{}
	for _, l := range splitEntries(old) {
		oldSet[l] = true
	}
	for _, l := range splitEntries(new) {
		newSet[l] = true
	}
	var removed, added []string
	for l := range oldSet {
		if !newSet[l] {
			removed = append(removed, l)
		}
	}
	for l := range newSet {
		if !oldSet[l] {
			added = append(added, l)
		}
	}
	sort.Strings(removed)
	sort.Strings(added)
	for _, l := range removed {
		fmt.Fprintf(w, "- %s\n", strings.ReplaceAll(l, "\n", "\n- "))
	}
	for _, l := range added {
		fmt.Fprintf(w, "+ %s\n", strings.ReplaceAll(l, "\n", "\n+ "))
	}
}

// splitEntries splits a snapshot into its blank-line-separated entries
// (skipping the header comments).
func splitEntries(b []byte) []string {
	var out []string
	for _, chunk := range strings.Split(string(b), "\n\n") {
		chunk = strings.TrimRight(chunk, "\n")
		if chunk == "" || strings.HasPrefix(chunk, "#") {
			continue
		}
		out = append(out, chunk)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "apisnapshot: "+format+"\n", args...)
	os.Exit(1)
}
