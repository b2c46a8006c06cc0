package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestAliasCarriesTarget checks that an alias to a type of another
// package in the module renders with the target's exported fields and
// methods, so dropping one of them drifts the snapshot.
func TestAliasCarriesTarget(t *testing.T) {
	root := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/m\n\ngo 1.24\n")
	write("api/api.go", `package api

import (
	"time"

	"example.com/m/internal/inner"
)

type Stamp = time.Time

type Result = inner.Result
`)
	write("internal/inner/inner.go", `package inner

// Result is the aliased type.
type Result struct {
	// Mean is documented.
	Mean float64
	hidden int
}

func (r *Result) Scale(k float64) { r.Mean *= k }

func (r *Result) reset() { r.hidden = 0 }
`)
	got, err := render(filepath.Join(root, "api"))
	if err != nil {
		t.Fatal(err)
	}
	want := `# Exported API of package api.
# Generated by ` + "`make api`" + ` (cmd/apisnapshot); diffed in CI. Do not edit.

type Result = inner.Result
	type Result struct{ Mean float64 }
	func (r *Result) Scale(k float64)

type Stamp = time.Time
`
	if string(got) != want {
		t.Errorf("snapshot:\n%s\nwant:\n%s", got, want)
	}
}
