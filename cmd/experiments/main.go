// Command experiments regenerates the paper's tables and figures.
//
//	experiments -list
//	experiments -run fig3
//	experiments -run all -tsv -out results/
//	experiments -run fig6 -paper        # paper-scale durations (slow)
//	experiments -run fig1 -cache /tmp/sweep-cache   # reuse completed cells
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes tables to stdout and
// diagnostics to stderr, and returns the exit status (2 for usage
// errors, 1 for failed runs).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runID    = fs.String("run", "", "experiment id (fig1..fig13, tab2, tab3, rtscts, ladder, convergence) or 'all'")
		list     = fs.Bool("list", false, "list available experiments")
		tsv      = fs.Bool("tsv", false, "emit tab-separated values instead of aligned tables")
		outDir   = fs.String("out", "", "also write each table to <out>/<id>.tsv")
		paper    = fs.Bool("paper", false, "paper-scale durations and seed counts (hours)")
		duration = fs.Duration("duration", 0, "override simulated duration per run")
		seeds    = fs.Int("seeds", 0, "override seeds per data point")
		cacheDir = fs.String("cache", "", "back every simulated cell with the content-addressed sweep cache at this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range experiment.Experiments() {
			fmt.Fprintf(stdout, "  %s\n", strings.Join(append([]string{e.ID}, e.Aliases...), ", "))
		}
		return 0
	}
	if *runID == "" {
		fmt.Fprintln(stderr, "experiments: -run <id> or -list required")
		return 2
	}

	opts := experiment.Quick()
	if *paper {
		opts = experiment.Paper()
	}
	if *duration != 0 {
		opts.Duration = sim.Duration(*duration)
		opts.Warmup = opts.Duration / 2
	}
	if *seeds != 0 {
		opts.Seeds = *seeds
	}
	opts.CacheDir = *cacheDir
	// Validate the final options — including flag overrides — before any
	// figure starts simulating, so a typo like `-duration 1ns` exits
	// with one clear message instead of failing deep inside a run.
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}

	todo := experiment.Experiments()
	if *runID != "all" {
		e, ok := experiment.Lookup(*runID)
		if !ok {
			fmt.Fprintf(stderr, "experiments: unknown id %q (try -list)\n", *runID)
			return 2
		}
		todo = []experiment.Experiment{e}
	}

	// SIGINT/SIGTERM cancel the context: the running figure aborts at
	// its next cell/replication boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, e := range todo {
		start := time.Now()
		table, err := e.Run(ctx, opts)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", e.ID, err)
			return 1
		}
		if *tsv {
			fmt.Fprint(stdout, table.TSV())
		} else {
			fmt.Fprint(stdout, table.String())
		}
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				return 1
			}
			path := filepath.Join(*outDir, table.ID+".tsv")
			if err := os.WriteFile(path, []byte(table.TSV()), 0o644); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				return 1
			}
		}
	}
	return 0
}
