package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
)

func TestListPrintsEveryID(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	for _, e := range experiment.Experiments() {
		for _, id := range append([]string{e.ID}, e.Aliases...) {
			if !strings.Contains(stdout.String(), id) {
				t.Errorf("-list output lacks %q:\n%s", id, stdout.String())
			}
		}
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-run", "fig99"},
		// Invalid options must be refused before any figure simulates:
		// fig3 would run for minutes at the default scale.
		{"-run", "fig3", "-duration", "1ns"},
		{"-bogus-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote to stdout: %q", args, stdout.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("%q: no diagnostic on stderr", args)
		}
	}
}

func TestRunWritesTSV(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "fig12", "-tsv", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	got, err := os.ReadFile(filepath.Join(dir, "fig12.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	// fig12 is analytic, so its table at the CLI's scale is the golden
	// table; the TSV file must be that table's TSV.
	e, _ := experiment.Lookup("fig12")
	tbl, err := e.Run(context.Background(), experiment.Quick())
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../internal/experiment/testdata/tables/fig12.txt")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.String() != string(golden) {
		t.Fatal("fig12 drifted from its golden table")
	}
	if string(got) != tbl.TSV() {
		t.Errorf("fig12.tsv:\n%s\nwant:\n%s", got, tbl.TSV())
	}
	if !strings.HasPrefix(stdout.String(), tbl.TSV()) {
		t.Errorf("stdout does not start with the TSV:\n%s", stdout.String())
	}
}
