// Package observerpurity enforces the metrics-as-pure-observers
// contract inside the sim-critical packages: simulation code may write
// instrumentation (Inc, Add, Set, Dec — one predictable atomic each)
// but may never read it back. A read — Counter.Value, Gauge.Value, a
// registry render — is the first step of instrumentation feeding into
// simulation control flow or emitted rows, which would make a
// metrics-enabled run diverge from a metrics-off run and break the
// bit-identical contract that TestMetricsDoNotChangeOutput pins.
//
// Reads belong to the scrape layer: the wlan facade's Metrics, whose
// Snapshot and render-time GaugeFuncs derive worker utilization and
// the cache hit rate, and the /metrics endpoint. The one derived gauge
// left next to the sim packages — scenario.Metrics' events/sec, which
// sits beside the wall-clock stamp it divides by — is a legitimate
// observer use and carries a //wlanvet:allow annotation.
package observerpurity

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the metrics-read checker.
var Analyzer = &analysis.Analyzer{
	Name: "observerpurity",
	Doc:  "flag reads of metrics values inside sim-critical packages; instrumentation must stay write-only there",
	Run:  run,
}

// readMethods are the metrics-package methods that expose accumulated
// values.
var readMethods = map[string]bool{
	"Value":           true,
	"WritePrometheus": true,
	"Handler":         true,
}

func run(pass *analysis.Pass) error {
	if !analysis.SimCriticalPkg(pass) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			f, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || f.Pkg() == nil {
				return true
			}
			if analysis.PkgBase(f.Pkg().Path()) != "metrics" || !readMethods[f.Name()] {
				return true
			}
			if f.Type().(*types.Signature).Recv() == nil {
				return true
			}
			pass.Reportf(call.Pos(),
				"metrics read %s.%s inside sim-critical code; instrumentation is a pure observer here — move the read to the scrape layer, or annotate a render-time observer with //wlanvet:allow <reason>",
				types.TypeString(f.Type().(*types.Signature).Recv().Type(), types.RelativeTo(pass.Pkg)),
				f.Name())
			return true
		})
	}
	return nil
}
