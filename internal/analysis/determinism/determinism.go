// Package determinism flags wall-clock reads, global math/rand use and
// order-leaking map iteration inside the sim-critical packages.
//
// The repository's central contract is that a (spec, seed, engine
// version) triple maps to bit-identical output bytes: goldens, engine
// fingerprints, the sweep cache and shard merges all assume it. Three
// innocuous-looking constructs silently break it:
//
//   - time.Now / time.Since introduce the host's clock into values that
//     may reach emitted rows;
//   - the global math/rand functions draw from process-wide state shared
//     with anything else in the binary, so replication interleaving
//     changes the stream;
//   - ranging over a map hands the loop body Go's randomised iteration
//     order, which is fine for commutative folds but not for anything
//     that appends, returns or sends what it saw.
//
// Legitimate uses — a map drained into a slice that is sorted before
// use — carry a //wlanvet:allow <reason> annotation instead. Wall-clock
// stamps belong outside the boundary, in the wlan facade or the cmd
// binaries.
package determinism

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the determinism checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "flag wall clocks, global math/rand and order-leaking map ranges in sim-critical packages",
	Run:  run,
}

// wallClock lists the time package functions that read or depend on
// the host clock.
var wallClock = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"Sleep":     true,
}

// globalRandOK lists math/rand top-level functions that do NOT touch
// the package-global generator: constructors are fine, draws are not.
var globalRandOK = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2 constructors.
	"NewPCG":     true,
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !analysis.SimCriticalPkg(pass) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// calleeFunc resolves a call to the *types.Func it invokes, or nil.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	f, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return f
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	f := calleeFunc(pass, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	// Only package-level functions matter here; methods on rand.Rand or
	// time.Timer values are driven by state the caller owns.
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		return
	}
	switch f.Pkg().Path() {
	case "time":
		if wallClock[f.Name()] {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock in sim-critical code; simulated time comes from the scheduler (annotate observers with //wlanvet:allow <reason>)",
				f.Name())
		}
	case "math/rand", "math/rand/v2":
		if !globalRandOK[f.Name()] {
			pass.Reportf(call.Pos(),
				"rand.%s draws from the process-global generator; use the per-replication sim.RNG so streams are seed-addressed",
				f.Name())
		}
	}
}

// checkRange flags map ranges whose body lets the randomised iteration
// order escape: an append, a return, or a channel send observed inside
// the loop can all carry order into results.
func checkRange(pass *analysis.Pass, rs *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	var escape string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if escape != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			escape = "a return"
		case *ast.SendStmt:
			escape = "a channel send"
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					escape = "an append"
				}
			}
		}
		return escape == ""
	})
	if escape != "" {
		pass.Reportf(rs.Pos(),
			"map iteration order escapes through %s; emitted results must not depend on Go's randomised map order (sort first, or annotate with //wlanvet:allow <reason>)",
			escape)
	}
}
