// Command wlanvet is the repository's invariant checker: a multichecker
// over the three project-specific analyzers whose bugs the tests, the
// race detector and the allocation guardrails can miss (DESIGN.md
// "Invariants as lint" has the mutation audit). All three are
// single-function and syntactic:
//
//	determinism  — no wall clocks, global math/rand, or order-leaking
//	               map ranges in sim-critical packages
//	inttime      — no narrowing conversions of int64 tick/expiry/slot
//	               arithmetic (the minCounter truncation class)
//	sentinelwrap — errors crossing the wlan facade wrap a typed
//	               sentinel via %w
//
// Usage:
//
//	wlanvet [-list] [-json] [packages]
//
// With no packages, ./... is checked. Suppressions are explicit in the
// source: a //wlanvet:allow <reason> comment on (or immediately above)
// the offending line silences it, and the reason is mandatory. Exit
// status is 1 when findings remain, 2 on usage or load errors — the
// same contract as go vet, which `make lint` and CI rely on.
//
// -json emits findings as a JSON array (schema-stable: file, line,
// col, analyzer, message; sorted by package path then position) for
// toolchain consumers — CI turns each element into a GitHub
// ::error annotation. The exit-status contract is unchanged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/inttime"
	"repro/internal/analysis/sentinelwrap"
)

// analyzers is the wlanvet suite, in diagnostic-prefix order.
var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	inttime.Analyzer,
	sentinelwrap.Analyzer,
}

// jsonFinding is the stable -json element shape. Field names are a
// published contract (ci.yml's annotation step and make lint-json parse
// them); add fields if needed, never rename or remove.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Getwd, os.Stdout, os.Stderr))
}

// run is main minus the process boundary, so the seeded-violation tests
// can drive the real flag/load/report path and assert on exit codes.
func run(args []string, getwd func() (string, error), stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wlanvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: wlanvet [-list] [-json] [packages]\n\n")
		fmt.Fprintf(stderr, "Checks the repository's simulator invariants; with no packages, ./... .\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := getwd()
	if err != nil {
		fmt.Fprintf(stderr, "wlanvet: %v\n", err)
		return 2
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "wlanvet: %v\n", err)
		return 2
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "wlanvet: %v\n", err)
		return 2
	}
	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "wlanvet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s\n", f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "wlanvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
