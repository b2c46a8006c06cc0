// Command apisnapshot renders the exported surface of a Go package as a
// deterministic, sorted text snapshot and either writes it or diffs it
// against the committed copy.
//
// It is the repository's API-compatibility gate: wlan/api.txt is the
// committed snapshot of the public wlan package, CI runs
// `apisnapshot -check` on every push, and any unreviewed change to the
// exported surface — a removed function, a changed signature, a
// retyped field — fails the build. Regenerate deliberately with
// `make api` after an intentional surface change.
//
// The surface is analysis.Surface, computed on the type-checked
// package: its exported objects plus every module type they reach —
// through an alias target, a field, a parameter, a result or a method
// signature, at any depth. Each type entry lists its exported fields
// (with tags) and the exported method set of *T, so removing a field or
// a method of, say, stats.TimeSeries behind wlan.Result drifts the
// snapshot. Unexported struct fields never appear; an interface's
// unexported methods appear only as a count.
//
//	apisnapshot                  # rewrite wlan/api.txt
//	apisnapshot -check           # exit 1 if wlan/api.txt is stale
//	apisnapshot -dir ./internal/sweep -snapshot /tmp/sweep.txt
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
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

// render returns the sorted surface of the package in dir (see
// analysis.Surface): one entry per exported object of the package and
// per module type it reaches, the package's own names unqualified and
// the others qualified by package name.
func render(dir string) ([]byte, error) {
	s, err := analysis.LoadSurface(dir)
	if err != nil {
		return nil, err
	}
	qual := func(p *types.Package) string {
		if p == s.Pkg {
			return ""
		}
		return p.Name()
	}
	var entries []string
	for _, obj := range s.Objects {
		entries = append(entries, renderObject(obj, qual))
	}
	for _, tn := range s.Reached {
		entries = append(entries, renderObject(tn, qual))
	}
	sort.Strings(entries)

	var out bytes.Buffer
	fmt.Fprintf(&out, "# Exported API of package %s.\n", s.Pkg.Name())
	fmt.Fprintf(&out, "# Generated by `make api` (cmd/apisnapshot); diffed in CI. Do not edit.\n")
	for _, e := range entries {
		out.WriteString("\n")
		out.WriteString(e)
		out.WriteString("\n")
	}
	return out.Bytes(), nil
}

// renderObject renders one entry: a constant with its value, a defined
// type with its exported members, anything else as types.ObjectString
// prints it.
func renderObject(obj types.Object, qual types.Qualifier) string {
	switch obj := obj.(type) {
	case *types.Const:
		return types.ObjectString(obj, qual) + " = " + obj.Val().ExactString()
	case *types.TypeName:
		if named, ok := obj.Type().(*types.Named); ok {
			return renderNamed(named, qual)
		}
	}
	return types.ObjectString(obj, qual)
}

// renderNamed renders a defined type, one member a line: a struct's
// exported fields with their tags, an interface's exported methods with
// a count of its unexported ones (they keep it from being implemented
// outside its package), then the exported methods of *T. Unexported
// struct fields are left out, so adding or removing one changes
// nothing.
func renderNamed(named *types.Named, qual types.Qualifier) string {
	var b strings.Builder
	b.WriteString("type " + types.TypeString(named, qual))
	switch u := named.Underlying().(type) {
	case *types.Struct:
		var fields []string
		for i := range u.NumFields() {
			f := u.Field(i)
			if !f.Exported() {
				continue
			}
			line := types.TypeString(f.Type(), qual)
			if !f.Embedded() {
				line = f.Name() + " " + line
			}
			if tag := u.Tag(i); tag != "" {
				line += " " + quoteTag(tag)
			}
			fields = append(fields, line)
		}
		members(&b, "struct", fields)
	case *types.Interface:
		var methods []string
		hidden := 0
		for i := range u.NumMethods() {
			if m := u.Method(i); m.Exported() {
				methods = append(methods, m.Name()+strings.TrimPrefix(types.TypeString(m.Type(), qual), "func"))
			} else {
				hidden++
			}
		}
		if hidden > 0 {
			methods = append(methods, fmt.Sprintf("// %d unexported methods", hidden))
		}
		members(&b, "interface", methods)
	default:
		b.WriteString(" " + types.TypeString(u, qual))
	}
	for _, m := range analysis.Methods(named) {
		b.WriteString("\n" + types.ObjectString(m, qual))
	}
	return b.String()
}

// members writes a struct or interface body, one member a line.
func members(b *strings.Builder, kind string, lines []string) {
	if len(lines) == 0 {
		b.WriteString(" " + kind + "{}")
		return
	}
	b.WriteString(" " + kind + " {")
	for _, l := range lines {
		b.WriteString("\n\t" + l)
	}
	b.WriteString("\n}")
}

// quoteTag writes a struct tag the way it is written in source.
func quoteTag(tag string) string {
	if strconv.CanBackquote(tag) {
		return "`" + tag + "`"
	}
	return strconv.Quote(tag)
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
