// Command wlansvc is the fault-tolerant sweep service: a coordinator
// daemon that owns one campaign (a sweep grid manifest), leases batches
// of points to workers over an HTTP JSON control plane, and streams the
// merged rows in canonical order — byte-identical to a single-machine
// wlansim run — with the content-addressed cache as the only durable
// truth. Workers crash, stall, retransmit and partition; none of that
// changes an output byte (see internal/svc for the fault model).
//
// The first SIGINT/SIGTERM drains the coordinator gracefully: no new
// leases, in-flight leases complete or expire. A second signal exits 1
// at once, leaving no partial -out file. Either way the campaign
// resumes later from the cache alone: restart with the same -manifest
// and -cache and committed points are never re-simulated.
//
// Examples:
//
//	wlansvc -coordinator -manifest examples/sweeps/svc-chaos.json -cache /shared/cache -out merged.jsonl -run-once
//	wlansvc -coordinator -manifest grid.json -cache /shared/cache -listen :8630 -lease-ttl 30s
//	wlansvc -worker -join http://127.0.0.1:8630 -parallel 4 -batch 8
//	wlansvc -worker -join http://coordinator:8630 -worker-id rack3-7
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/svc"
	"repro/internal/sweep"
	"repro/wlan"
)

func main() {
	var (
		coordMode  = flag.Bool("coordinator", false, "run the campaign coordinator: lease sweep points to workers and stream the merged rows")
		workerMode = flag.Bool("worker", false, "run a sweep worker: lease points from the -join coordinator, simulate them, submit completions")
	)
	cf := coordFlags{}
	flag.StringVar(&cf.manifest, "manifest", "", "with -coordinator: the sweep grid file defining the campaign (required)")
	flag.StringVar(&cf.listen, "listen", "127.0.0.1:8630", "with -coordinator: control-plane listen address")
	flag.StringVar(&cf.cache, "cache", "", "with -coordinator: content-addressed result cache directory — the campaign's only durable truth; without it a coordinator crash loses all progress")
	flag.StringVar(&cf.out, "out", "", "with -coordinator: write the merged JSONL rows to this file (default stdout), plus a <file>.meta.json run stamp")
	flag.DurationVar(&cf.leaseTTL, "lease-ttl", 15*time.Second, "with -coordinator: how long a lease survives without a heartbeat before its points are reissued")
	flag.IntVar(&cf.maxBatch, "max-batch", 8, "with -coordinator: maximum points per lease")
	flag.IntVar(&cf.maxReissues, "max-reissues", 50, "with -coordinator: per-point reissue budget before the campaign is declared failed")
	flag.BoolVar(&cf.runOnce, "run-once", false, "with -coordinator: exit when the campaign completes instead of keeping the control plane up")
	var (
		join     = flag.String("join", "", "with -worker: coordinator base URL to lease points from (required)")
		workerID = flag.String("worker-id", "", "with -worker: name for this worker in coordinator logs (default <hostname>-<pid>)")
		parallel = flag.Int("parallel", 0, "with -worker: replication worker count (0 = GOMAXPROCS)")
		batch    = flag.Int("batch", 0, "with -worker: points to request per lease (0 = coordinator's default)")
	)
	flag.Parse()
	validateFlagModes(*coordMode, *workerMode)

	if *coordMode {
		runCoordinator(cf)
		return
	}
	runWorker(*join, *workerID, *parallel, *batch)
}

// validateFlagModes rejects flag combinations one mode would silently
// ignore, before anything runs: exactly one of -coordinator and
// -worker, the mode's required flag present, and no flags from the
// other mode. Violations exit 2 with a usage message, matching
// wlansim's up-front validation.
func validateFlagModes(coordMode, workerMode bool) {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	switch {
	case coordMode && workerMode:
		usageExit("at most one of -coordinator and -worker may be given")
	case !coordMode && !workerMode:
		usageExit("one of -coordinator or -worker is required")
	}
	workerFlags := []string{"join", "worker-id", "parallel", "batch"}
	coordOnly := []string{"manifest", "listen", "cache", "out", "lease-ttl", "max-batch", "max-reissues", "run-once"}
	if coordMode {
		if !set["manifest"] {
			usageExit("-coordinator requires -manifest")
		}
		if bad := setFlags(set, workerFlags); len(bad) > 0 {
			usageExit(fmt.Sprintf("worker-only flag(s) %s would be ignored with -coordinator", strings.Join(bad, ", ")))
		}
		return
	}
	if !set["join"] {
		usageExit("-worker requires -join")
	}
	if bad := setFlags(set, coordOnly); len(bad) > 0 {
		usageExit(fmt.Sprintf("coordinator-only flag(s) %s would be ignored with -worker", strings.Join(bad, ", ")))
	}
}

func setFlags(set map[string]bool, names []string) []string {
	var bad []string
	for _, n := range names {
		if set[n] {
			bad = append(bad, "-"+n)
		}
	}
	return bad
}

// usageExit reports a flag-validation failure and exits 2, the
// CLI-misuse exit code.
func usageExit(msg string) {
	fmt.Fprintf(os.Stderr, "wlansvc: %s\nrun 'wlansvc -h' for usage\n", msg)
	os.Exit(2)
}

// errAbandoned ends a coordinator run on the second signal.
var errAbandoned = errors.New("second signal, exiting without drain")

type coordFlags struct {
	manifest, listen, cache, out string
	leaseTTL                     time.Duration
	maxBatch, maxReissues        int
	runOnce                      bool
}

// runCoordinator owns the campaign end to end: manifest in, control
// plane up, rows streamed as their contiguous prefix completes, output
// renamed into place only when the campaign finishes. The final stats
// line carries the same "N simulated" figure the sweep CLI prints — a
// warm resume reports "(0 simulated", the proof that committed points
// were never re-run.
func runCoordinator(cf coordFlags) {
	data, err := os.ReadFile(cf.manifest)
	if err != nil {
		fatalf("%v", err)
	}
	g, err := wlan.DecodeSweep(data)
	if err != nil {
		fatalf("%v", err)
	}
	name := g.Name
	if name == "" {
		name = cf.manifest
	}
	var cache *sweep.Cache
	if cf.cache != "" {
		if cache, err = sweep.OpenCache(cf.cache); err != nil {
			fatalf("%v", err)
		}
	} else {
		fmt.Fprintln(os.Stderr, "wlansvc: warning: no -cache; a coordinator crash loses all campaign progress")
	}

	// First signal drains: no new leases, in-flight leases finish or
	// expire, then the run loop is released. A second signal abandons
	// the drain: it cancels the run with errAbandoned, so the campaign
	// fails, -out's temp file is removed and the process exits 1.
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	var (
		c    *svc.Coordinator
		wall time.Duration
	)
	campaign := func(out io.Writer) (*sweep.Meta, error) {
		var err error
		c, err = svc.NewCoordinator(svc.CoordinatorConfig{
			Grid:        g,
			Cache:       cache,
			LeaseTTL:    cf.leaseTTL,
			MaxBatch:    cf.maxBatch,
			MaxReissues: cf.maxReissues,
			Out:         out,
			Logf:        logf,
		})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", cf.listen)
		if err != nil {
			return nil, err
		}
		go func() {
			if err := http.Serve(ln, c.Handler()); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "wlansvc: control plane: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "wlansvc: coordinator serving campaign %s (%d points) on http://%s\n",
			name, c.Stats().Total, ln.Addr())

		sig := make(chan os.Signal, 2)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "wlansvc: signal received, draining (signal again to exit immediately)")
			go func() {
				dctx, dcancel := context.WithTimeout(context.Background(), 2*cf.leaseTTL+time.Second)
				defer dcancel()
				if err := c.Drain(dctx); err != nil {
					fmt.Fprintf(os.Stderr, "wlansvc: drain: %v\n", err)
				}
				cancel(nil)
			}()
			<-sig
			cancel(errAbandoned)
		}()

		start := time.Now()
		err = c.Run(ctx)
		wall = time.Since(start)
		switch {
		case errors.Is(context.Cause(ctx), errAbandoned):
			return nil, errAbandoned
		case errors.Is(err, context.Canceled):
			return nil, err
		case err != nil:
			return nil, fmt.Errorf("campaign %s: %w (%s)", name, err, c.Stats())
		}
		return sweep.NewMeta(g, sweep.Shard{}, c.Stats().SweepStats(), start, wall), nil
	}

	// Rows stream to -out through a temp file renamed into place only
	// when the campaign finishes, so a drained or killed coordinator
	// never leaves a truncated JSONL there.
	statsOut := os.Stdout
	if cf.out == "" {
		statsOut = os.Stderr
		_, err = campaign(os.Stdout)
	} else {
		err = sweep.WriteOutput(cf.out, campaign)
	}
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(statsOut, "campaign %s drained: %s in %v\n", name, c.Stats(), wall.Round(time.Millisecond))
		return
	case err != nil:
		fatalf("%v", err)
	}
	fmt.Fprintf(statsOut, "campaign %s: %s in %v\n", name, c.Stats(), wall.Round(time.Millisecond))
	if !cf.runOnce {
		fmt.Fprintln(os.Stderr, "wlansvc: campaign done; control plane stays up for /v1/status and /metrics (signal to exit)")
		<-ctx.Done()
	}
}

// runWorker joins a campaign through the public wlan.Lab facade and
// works it to the end. Graceful outcomes — campaign done, coordinator
// draining, SIGTERM — exit 0; a failed campaign or an unreachable
// coordinator exits 1.
func runWorker(join, id string, parallel, batch int) {
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	lab := wlan.NewLab(wlan.WithParallelism(parallel))
	defer lab.Close()
	fmt.Fprintf(os.Stderr, "wlansvc: worker %s joining %s\n", id, join)
	err := lab.ServeSweeps(ctx, join,
		wlan.WithWorkerID(id), wlan.WithWorkerBatch(batch), wlan.WithServeLogf(logf))
	switch {
	case errors.Is(err, wlan.ErrCanceled):
		fmt.Fprintf(os.Stderr, "wlansvc: worker %s: canceled, exiting\n", id)
	case err != nil:
		fatalf("worker %s: %v", id, err)
	default:
		fmt.Fprintf(os.Stderr, "wlansvc: worker %s: done\n", id)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wlansvc: "+format+"\n", args...)
	os.Exit(1)
}
