package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, []*ast.File{f}
}

func TestScanAllowsReasonless(t *testing.T) {
	fset, files := parseOne(t, `package p

func f() {
	//wlanvet:allow
	_ = 0
}
`)
	allows, bad := scanAllows(fset, files)
	if len(bad) != 1 {
		t.Fatalf("want 1 reasonless-allow finding, got %d", len(bad))
	}
	if !strings.Contains(bad[0].Message, "needs a reason") {
		t.Errorf("message = %q, want it to demand a reason", bad[0].Message)
	}
	// A reasonless directive suppresses nothing.
	pos := bad[0].Pos
	pos.Line++
	if allows.suppressed(pos) {
		t.Errorf("reasonless allow at %v suppressed the next line", bad[0].Pos)
	}
}

func TestScanAllowsCoversOwnAndNextLine(t *testing.T) {
	fset, files := parseOne(t, `package p

func f() {
	//wlanvet:allow the invariant holds because of X
	_ = 0
	_ = 1 //wlanvet:allow trailing-comment style works too
}
`)
	allows, bad := scanAllows(fset, files)
	if len(bad) != 0 {
		t.Fatalf("unexpected reasonless findings: %v", bad)
	}
	check := func(line int, want bool) {
		t.Helper()
		got := allows.suppressed(token.Position{Filename: "x.go", Line: line})
		if got != want {
			t.Errorf("line %d suppressed = %v, want %v", line, got, want)
		}
	}
	check(4, true)  // the directive's own line
	check(5, true)  // the line below it
	check(6, true)  // trailing-comment directive suppresses its own line
	check(8, false) // unrelated lines stay live
}
