package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// module is a small two-package module: api is the snapshotted
// package, inner holds the types it reaches in each way the surface
// follows, plus one it does not reach.
var module = map[string]string{
	"go.mod": "module example.com/m\n\ngo 1.24\n",
	"api/api.go": `package api

import (
	"time"

	"example.com/m/internal/inner"
)

const Version = "v1"

type Stamp = time.Time

type Alias = inner.Aliased

type Config struct {
	Field inner.Fielded
}

func Take(p inner.Param) {}

func Make() *inner.Result { return nil }
`,
	"internal/inner/inner.go": `package inner

type Aliased struct {
	// Mean is documented.
	Mean float64 ` + "`json:\"mean\"`" + `
	hidden int
}

func (a *Aliased) Scale(k float64) {}

func (a *Aliased) reset() {}

type Fielded struct{ Next Deep }

type Deep struct{ Depth int }

type Param interface {
	Apply() error
	seal()
}

type Result struct{ N int }

func (Result) Count() int { return 0 }

type Unreached struct{ X int }
`,
}

// writeModule writes module to a temporary directory, with one edit
// applied to the file it names, and returns the api package directory.
func writeModule(t *testing.T, file, old, new string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range module {
		if name == file {
			if !strings.Contains(src, old) {
				t.Fatalf("%s does not contain %q", name, old)
			}
			src = strings.Replace(src, old, new, 1)
		}
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(root, "api")
}

// TestSnapshotReachedTypes renders the module and then edits of it: the
// snapshot carries every module type the api package reaches, however
// it reaches it, and changes exactly when their exported surface does.
func TestSnapshotReachedTypes(t *testing.T) {
	base, err := render(writeModule(t, "", "", ""))
	if err != nil {
		t.Fatal(err)
	}
	want := "# Exported API of package api.\n" +
		"# Generated by `make api` (cmd/apisnapshot); diffed in CI. Do not edit.\n" + `
const Version untyped string = "v1"

func Make() *inner.Result

func Take(p inner.Param)

type Alias = inner.Aliased

type Config struct {
	Field inner.Fielded
}

type Stamp = time.Time

type inner.Aliased struct {
	Mean float64 ` + "`json:\"mean\"`" + `
}
func (*inner.Aliased).Scale(k float64)

type inner.Deep struct {
	Depth int
}

type inner.Fielded struct {
	Next inner.Deep
}

type inner.Param interface {
	Apply() error
	// 1 unexported methods
}

type inner.Result struct {
	N int
}
func (inner.Result).Count() int
`
	if string(base) != want {
		t.Fatalf("snapshot:\n%s\nwant:\n%s", base, want)
	}

	for _, tc := range []struct {
		name, file, old, new string
		changes              bool
	}{
		{"exported field of an alias target removed", "internal/inner/inner.go", "Mean float64 `json:\"mean\"`\n", "", true},
		{"exported method of a result type removed", "internal/inner/inner.go", "func (Result) Count() int { return 0 }", "", true},
		{"exported field two hops deep removed", "internal/inner/inner.go", "Deep struct{ Depth int }", "Deep struct{}", true},
		{"exported method of a parameter type removed", "internal/inner/inner.go", "Apply() error\n", "", true},
		{"constant value changed", "api/api.go", `"v1"`, `"v2"`, true},
		{"unexported field removed", "internal/inner/inner.go", "hidden int\n", "", false},
		{"unexported field added", "internal/inner/inner.go", "Fielded struct{ Next Deep }", "Fielded struct {\n\tNext Deep\n\tcache []int\n}", false},
		{"unexported method removed", "internal/inner/inner.go", "func (a *Aliased) reset() {}", "", false},
		{"unreached type changed", "internal/inner/inner.go", "Unreached struct{ X int }", "Unreached struct{ Y string }", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := render(writeModule(t, tc.file, tc.old, tc.new))
			if err != nil {
				t.Fatal(err)
			}
			if changed := string(got) != string(base); changed != tc.changes {
				t.Errorf("snapshot changed = %v, want %v:\n%s", changed, tc.changes, got)
			}
		})
	}
}
