// Package analysis is the repository's static-analysis substrate: a
// self-contained reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus a package loader and a
// driver, built entirely on the standard library and the go command.
//
// It exists for the invariants that goldens, allocation guardrails and
// fingerprint tests enforce only when a test happens to drive the
// breaking input: bit-identical determinism, int64 tick arithmetic and
// the wlan facade's closed error taxonomy. A violation there ships
// silently until a scale tier or workload exercises it (the minCounter
// int truncation is the canonical incident). The wlanvet analyzers in
// the sibling packages fail the build at the offending line instead.
// Invariants that the tests or the package graph already enforce have
// no analyzer.
//
// The API deliberately mirrors go/analysis so the analyzers can be
// lifted onto the real x/tools multichecker unchanged if the module
// ever takes on that dependency; the container this repository grows in
// has no module proxy access, so the framework itself stays std-only.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker: a name for diagnostics, a
// doc string, and the function applied to every loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and must be a valid
	// identifier.
	Name string
	// Doc is the analyzer's documentation: first line summary, then the
	// contract it enforces and the incident/test that motivated it.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through the pass.
	Run func(*Pass) error
}

// Pass is one (analyzer, package) unit of work: the syntax, type
// information and report sink for a single package.
type Pass struct {
	// Analyzer is the checker being applied.
	Analyzer *Analyzer
	// Fset maps positions for every file in the package.
	Fset *token.FileSet
	// Files is the package's parsed syntax, in load order.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Report emits one diagnostic.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf emits a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position inside the package and a
// message describing the invariant violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// PkgBase returns the last element of a slash-separated package path:
// the analyzers scope themselves by path base (for example "slotsim",
// "sweep") so that analyzertest packages named after the real package
// fall under the same contract as the code they imitate.
func PkgBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// SimCritical is the set of package-path bases under the determinism
// contract: everything that executes between a seed and an emitted
// result row. Code here may not read wall clocks, global RNG state, or
// leak map iteration order into results (see the determinism and
// inttime analyzers).
//
// The wlan facade and the cmd binaries sit deliberately outside the
// set: run stamps and progress tickers are facts about one execution,
// not about the physics, and live in sidecars the golden diffs never
// see.
var SimCritical = map[string]bool{
	"sim":      true,
	"eventsim": true,
	"slotsim":  true,
	"scenario": true,
	"sweep":    true,
	"topo":     true,
	"traffic":  true,
	"mac":      true,
	// Pure functions of their inputs, all on the seed→row path: the
	// analytic models and scheduling policies, frame accounting, the
	// declarative scheme/stat/trace layers, and the experiment
	// orchestrators whose tables the paper figures are cut from.
	"core":       true,
	"experiment": true,
	"frame":      true,
	"model":      true,
	"scheme":     true,
	"stats":      true,
	"trace":      true,
}

// SimExempt names packages that sit deliberately OUTSIDE the
// determinism boundary even though they move sim-critical results
// around, each with the reason on record. The determinism and inttime
// analyzers must never cover these: their job is
// distributed-systems plumbing, where wall clocks, timers, network
// jitter and randomized backoff are the mechanism, not a leak. Nothing
// in them touches physics — they shuttle opaque, already-deterministic
// result bytes, and the byte-identity end-to-end tests in internal/svc
// enforce that dynamically.
//
// The map is consulted by SimCriticalPkg, so an exemption here wins
// even if the same base is ever added to SimCritical by mistake; the
// analysis tests additionally pin the two sets disjoint.
var SimExempt = map[string]string{
	"svc":      "coordinator/worker control plane: lease TTLs, heartbeat timers and retry backoff legitimately read wall clocks",
	"chaos":    "fault-injection transport: wall-clock-free but seeded-random by design, and its faults exist to disturb timing",
	"analysis": "the static-analysis substrate itself: it shells out to the go command and reads the build cache, and it never executes between a seed and a result row",
	"metrics":  "the observability registry: reading its own counters is its purpose (scrape, export, progress); TestOnlyScenarioImportsMetrics keeps sim code from importing it, scenario excepted (ROADMAP item 1)",
}

// SimCriticalPkg reports whether the pass's package is inside the
// determinism boundary. An explicit SimExempt entry always wins.
func SimCriticalPkg(p *Pass) bool {
	base := PkgBase(p.Pkg.Path())
	if _, ok := SimExempt[base]; ok {
		return false
	}
	return SimCritical[base]
}
