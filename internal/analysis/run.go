package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Directive comment forms recognised by the driver:
//
//	//wlanvet:allow <reason>  — suppress diagnostics on this line and
//	                            the next; the reason is mandatory and
//	                            should name why the invariant holds
//	                            anyway (or why this use is outside it).
const allowPrefix = "//wlanvet:allow"

// Finding is one post-suppression diagnostic, resolved to a position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// PkgPath is the import path of the package the finding is in; it
	// is the primary sort key, so multi-package runs produce the same
	// order however the loader enumerated the patterns.
	PkgPath string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// allowSet records, per file, the lines covered by //wlanvet:allow
// directives.
type allowSet map[string]map[int]bool

// scanAllows collects allow directives from the package's comments.
// A directive suppresses diagnostics on its own line (trailing-comment
// style) and on the line below (directive-above style). Directives with
// no reason are themselves findings: a suppression that does not say
// why teaches the next reader nothing.
func scanAllows(fset *token.FileSet, files []*ast.File) (allowSet, []Finding) {
	allows := allowSet{}
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				pos := fset.Position(c.Pos())
				if reason == "" {
					bad = append(bad, Finding{
						Pos:      pos,
						Analyzer: "wlanvet",
						Message:  "//wlanvet:allow needs a reason: say why the invariant holds anyway",
					})
					continue
				}
				lines := allows[pos.Filename]
				if lines == nil {
					lines = map[int]bool{}
					allows[pos.Filename] = lines
				}
				lines[pos.Line] = true
				lines[pos.Line+1] = true
			}
		}
	}
	return allows, bad
}

// suppressed reports whether a finding at pos is covered by an allow
// directive.
func (a allowSet) suppressed(pos token.Position) bool {
	return a[pos.Filename][pos.Line]
}

// Run applies every analyzer to every package, resolves //wlanvet:allow
// suppressions, and returns the surviving findings sorted by package
// path, then position — one aggregated result however many packages
// matched, so a multi-package invocation has a deterministic order and
// a single combined exit rather than first-package-wins. An analyzer
// error (a framework bug, not a finding) aborts the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		allows, bad := scanAllows(pkg.Fset, pkg.Files)
		for i := range bad {
			bad[i].PkgPath = pkg.Path
		}
		findings = append(findings, bad...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			var diags []Diagnostic
			pass.report = func(d Diagnostic) { diags = append(diags, d) }
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				if allows.suppressed(pos) {
					continue
				}
				findings = append(findings, Finding{Pos: pos, Analyzer: a.Name, Message: d.Message, PkgPath: pkg.Path})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.PkgPath != b.PkgPath {
			return a.PkgPath < b.PkgPath
		}
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings, nil
}
