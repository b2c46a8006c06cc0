package sweep

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWriteOutputWholeOrNothing pins the one output path of sweep rows:
// an aborted write (here a merge that finds a shard missing after it
// has written a row) leaves an earlier good file byte-identical and no
// temp file behind, and a finished write replaces the file and stamps
// its sidecar.
func TestWriteOutputWholeOrNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "merged.jsonl")
	const good = `{"index":0,"name":"a"}` + "\n" + `{"index":1,"name":"b"}` + "\n"
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	entries := func() []string {
		t.Helper()
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		return names
	}

	gap := `{"index":0,"name":"a"}` + "\n" + `{"index":2,"name":"c"}` + "\n"
	err := WriteOutput(path, func(w io.Writer) (*Meta, error) {
		_, err := Merge(w, strings.NewReader(gap))
		return nil, err
	})
	if err == nil {
		t.Fatal("a merge with a shard missing succeeded")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != good {
		t.Errorf("aborted merge left %q (%v), want the earlier file %q", got, err, good)
	}
	if names := entries(); len(names) != 1 {
		t.Errorf("aborted merge left %v, want only merged.jsonl", names)
	}

	g := &Grid{Name: "out"}
	err = WriteOutput(path, func(w io.Writer) (*Meta, error) {
		_, err := io.WriteString(w, good[:len(good)/2])
		return NewMeta(g, Shard{}, Stats{}, time.Unix(0, 0), 0), err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != good[:len(good)/2] {
		t.Errorf("finished write left %q (%v)", got, err)
	}
	if fi, err := os.Stat(path); err != nil {
		t.Error(err)
	} else if fi.Mode().Perm() != 0o644 {
		t.Errorf("output mode %v, want 0644", fi.Mode().Perm())
	}
	if names := entries(); len(names) != 2 || names[1] != "merged.jsonl.meta.json" {
		t.Errorf("finished write left %v, want the output and its sidecar", names)
	}
}
