package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path ("repro/internal/slotsim").
	Path string
	// Module is the path of the module that holds the package.
	Module string
	// Dir is the directory holding the package's sources.
	Dir string
	// Fset maps token positions for Files (shared across a Load call).
	Fset *token.FileSet
	// Files is the parsed syntax of the package's non-test Go files.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// TypesInfo records the type of every expression in Files.
	TypesInfo *types.Info
}

// listPackage mirrors the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	ImportMap  map[string]string
	Module     *struct{ Path string }
	Error      *listError
}

type listError struct {
	Err string
}

// goList runs `go list -e -export -deps -json` for the given patterns
// in dir and decodes the stream. -export makes the go command compile
// every listed package and report the build-cache path of its gc export
// data, which is how the type checker resolves imports without a module
// proxy: everything comes from the local toolchain and build cache.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(&out)
	for {
		lp := &listPackage{}
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// DepImporter resolves import paths to type-checked packages through
// the go command's export data, shelling out lazily for paths it has
// not seen. It is the importer behind both the wlanvet driver and the
// analyzertest harness (where testdata packages import std or module
// packages).
type DepImporter struct {
	dir  string
	fset *token.FileSet

	mu        sync.Mutex
	exports   map[string]string // import path -> export data file
	importMap map[string]string // source import -> resolved path
	gc        types.ImporterFrom
}

// NewDepImporter returns an importer rooted at module directory dir.
func NewDepImporter(dir string, fset *token.FileSet) *DepImporter {
	d := &DepImporter{
		dir:       dir,
		fset:      fset,
		exports:   map[string]string{},
		importMap: map[string]string{},
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, err := d.exportFile(path)
		if err != nil {
			return nil, err
		}
		return os.Open(f)
	}
	d.gc = importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return d
}

// absorb records the export data locations from one go list run.
func (d *DepImporter) absorb(pkgs []*listPackage) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, lp := range pkgs {
		if lp.Export != "" {
			d.exports[lp.ImportPath] = lp.Export
		}
		for from, to := range lp.ImportMap {
			d.importMap[from] = to
		}
	}
}

// exportFile returns the export data file for path, listing it (and
// its dependencies) on first use.
func (d *DepImporter) exportFile(path string) (string, error) {
	d.mu.Lock()
	if to, ok := d.importMap[path]; ok {
		path = to
	}
	f, ok := d.exports[path]
	d.mu.Unlock()
	if ok {
		return f, nil
	}
	pkgs, err := goList(d.dir, []string{path})
	if err != nil {
		return "", err
	}
	d.absorb(pkgs)
	d.mu.Lock()
	f, ok = d.exports[path]
	d.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("analysis: no export data for %q", path)
	}
	return f, nil
}

// Import implements types.Importer.
func (d *DepImporter) Import(path string) (*types.Package, error) {
	return d.ImportFrom(path, d.dir, 0)
}

// ImportFrom implements types.ImporterFrom.
func (d *DepImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	return d.gc.ImportFrom(path, srcDir, mode)
}

// typeCheck parses and type-checks one package directory's files.
func typeCheck(fset *token.FileSet, imp types.Importer, path, dir string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		fn := name
		if !filepath.IsAbs(fn) {
			fn = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		var b strings.Builder
		for i, e := range typeErrs {
			if i == 8 {
				fmt.Fprintf(&b, "\n\t... and %d more", len(typeErrs)-i)
				break
			}
			fmt.Fprintf(&b, "\n\t%v", e)
		}
		return nil, fmt.Errorf("analysis: type errors in %s:%s", path, b.String())
	}
	return &Package{
		Path:      path,
		Dir:       dir,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// CheckDir parses and type-checks every non-test .go file in dir as a
// package with the given import path, resolving imports through imp.
// It is the loading path for analyzertest testdata packages, which live
// outside the module's package graph (go list never sees a testdata
// directory) and so cannot come through Load.
func CheckDir(fset *token.FileSet, imp types.Importer, path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %v", err)
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") && !e.IsDir() {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	sort.Strings(names)
	return typeCheck(fset, imp, path, dir, names)
}

// Load resolves the go package patterns (for example "./...") relative
// to dir and returns the matched packages parsed and type-checked.
// Dependencies are resolved from gc export data, so only the matched
// packages themselves are re-checked from source. Test files are not
// loaded: the invariants the analyzers enforce are about simulation
// code, and tests are free to read wall clocks and wrap nothing.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := NewDepImporter(dir, fset)
	imp.absorb(listed)

	var pkgs []*Package
	var errs []string
	for _, lp := range listed {
		if lp.DepOnly {
			continue
		}
		if lp.Error != nil {
			errs = append(errs, fmt.Sprintf("%s: %s", lp.ImportPath, lp.Error.Err))
			continue
		}
		if lp.Name == "" || len(lp.GoFiles) == 0 {
			continue
		}
		p, err := typeCheck(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		if lp.Module != nil {
			p.Module = lp.Module.Path
		}
		pkgs = append(pkgs, p)
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return nil, fmt.Errorf("analysis: load failed:\n%s", strings.Join(errs, "\n"))
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}
