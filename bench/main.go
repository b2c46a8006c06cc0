// Command wlanbench is the repository benchmark. It runs one workload
// and prints, as the last line of its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"points_per_s": {"value": ..., "unit": "1/s"}, ...}}
//
// With -trace 0 it times repetitions of the workload, each in a fresh
// child process (the binary re-executes itself), for -seconds seconds
// and reports the median of every end-to-end metric. With -trace 1 it
// runs the traced ledger instead: the workload's work driven layer by
// layer with a span around every call, and reports the per-layer
// metrics. Both modes check the outputs and exit non-zero, naming the
// workload, when a check fails. README.md describes the workloads and
// metrics.
//
// Run it through run.sh from the repository root, which builds it from
// that checkout's sources:
//
//	bash bench/run.sh --workload campaign-small --seed 1 --seconds 15 --trace 0
//
// The harness is Linux-only: it reads child resource usage from the
// kernel's rusage and ties each child's life to its own.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// childArg, as the first argument, makes the binary run one repetition
// from the input file named by the second.
const childArg = "child"

const (
	// minReps is the fewest timed repetitions a run makes, however short
	// -seconds is.
	minReps = 3
	// repBudget stops starting repetitions well inside the three-minute
	// limit a run must finish in.
	repBudget = 120 * time.Second
	// childTimeout kills a repetition that hangs.
	childTimeout = 150 * time.Second
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a timed run reports, each the median over
// its repetitions. They must match BENCHMARK.json's end_to_end list.
var endToEnd = []metricDef{
	{"points_per_s", "1/s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spans    string
	tiny     bool // test-sized inputs
	minReps  int
	workDir  string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("wlanbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed; every workload's simulation seeds shift with it")
	seconds := fs.Float64("seconds", 15, "keep starting timed repetitions for this many seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of timed repetitions")
	spans := fs.String("spans", "", "with -trace 1, write the spans here (default .bench_build/trace/<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "wlanbench: -workload must be one of %s\n", strings.Join(workloadNames, ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "wlanbench: -trace must be 0 or 1")
		return 2
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wlanbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	o := options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		spans:    *spans,
		minReps:  minReps,
		workDir:  work,
	}
	if o.trace && o.spans == "" {
		o.spans = filepath.Join(".bench_build", "trace", o.workload+".json")
	}
	rep, err := run(o)
	return finish(rep, err, stdout)
}

// run executes one timed or traced run.
func run(o options) (*report, error) {
	if o.trace {
		return traceRun(o)
	}
	return measure(o)
}

// finish prints the result line and maps the outcome to an exit code.
// A run that failed before it could attempt anything prints nothing.
func finish(rep *report, err error, stdout io.Writer) int {
	if rep != nil {
		line, merr := json.Marshal(rep)
		if merr != nil {
			fmt.Fprintf(os.Stderr, "wlanbench: encode result: %v\n", merr)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wlanbench: %v\n", err)
		return 1
	}
	return 0
}

// repResult is what a child reports about its repetition.
type repResult struct {
	// ReadyUnixNano is the wall-clock instant set-up finished; the
	// parent measures set-up from just before it started the process.
	ReadyUnixNano int64 `json:"ready_unix_nano"`
	// SetupS is set-up time measured inside the process.
	SetupS float64 `json:"setup_s"`
	// RunS runs from the end of set-up to the last row written.
	RunS   float64 `json:"run_s"`
	Points int     `json:"points"`
	// SHAs holds the sha256 of each pass's rows.
	SHAs []string `json:"shas"`
	Err  string   `json:"err,omitempty"`
}

// wall is the repetition's set-up plus run time.
func (r *repResult) wall() float64 { return r.SetupS + r.RunS }

// measure times repetitions of the workload, each in a child process,
// until o.seconds have passed, and reports the median of every
// end-to-end metric over all but the first, warm-up, repetition.
func measure(o options) (*report, error) {
	in, err := prepare(o.workload, o.seed, o.tiny, o.workDir)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	inPath := filepath.Join(o.workDir, "input.json")
	if err := os.WriteFile(inPath, data, 0o644); err != nil {
		return nil, err
	}
	rep := &report{Metrics: map[string]metric{}}
	var results []*repResult
	samples := map[string][]float64{}
	start := time.Now()
	// Repetition 0 warms the page cache and the CPU: it is checked like
	// the others but not timed.
	for i := 0; i <= o.minReps || time.Since(start) < o.seconds; i++ {
		if time.Since(start) > repBudget {
			break
		}
		res, sample, err := runChild(self, inPath)
		rep.Attempted += in.Points
		if err != nil {
			rep.Failed += in.Points
			results = append(results, &repResult{Err: err.Error()})
			break
		}
		results = append(results, res)
		if i == 0 {
			continue
		}
		for k, v := range sample {
			samples[k] = append(samples[k], v)
		}
	}
	err = verify(in, results)
	rep.Correct = err == nil && rep.Failed == 0
	for _, d := range endToEnd {
		if xs := samples[d.name]; len(xs) > 0 {
			rep.Metrics[d.name] = metric{Value: quantile(xs, 0.5), Unit: d.unit}
		}
	}
	printSamples(o, len(results), time.Since(start), samples)
	return rep, err
}

// runChild runs one repetition in a fresh process and returns its
// end-to-end sample.
func runChild(self, inPath string) (*repResult, map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, childArg, inPath)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	// The child dies with the harness, so no repetition outlives it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	runErr := cmd.Run()
	res := &repResult{}
	if err := json.Unmarshal(lastLine(out.Bytes()), res); err != nil {
		return nil, nil, fmt.Errorf("repetition printed no result (%v): %v", runErr, err)
	}
	if res.Err != "" {
		return nil, nil, errors.New(res.Err)
	}
	if runErr != nil {
		return nil, nil, runErr
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, nil, fmt.Errorf("no resource usage for the repetition")
	}
	return res, map[string]float64{
		"points_per_s": float64(res.Points) / res.RunS,
		"setup_s":      time.Unix(0, res.ReadyUnixNano).Sub(start).Seconds(),
		"cpu_s":        seconds(ru.Utime) + seconds(ru.Stime),
		"peak_rss_mb":  float64(ru.Maxrss) / 1024, // Linux reports KiB
	}, nil
}

func seconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// verify applies the correctness oracles to a workload's repetitions:
// none failed, and every pass of every repetition wrote the same rows —
// the fixture's reference rows where the workload has one.
func verify(in *input, results []*repResult) error {
	want, from := in.WantSHA, "the reference rows"
	if want == "" {
		from = "the first pass"
	}
	for i, r := range results {
		if r.Err != "" {
			return fmt.Errorf("%s: repetition %d failed: %s", in.Workload, i, r.Err)
		}
		for p, sha := range r.SHAs {
			if want == "" {
				want = sha
			}
			if sha != want {
				return fmt.Errorf("%s: rows of repetition %d pass %d (sha256 %.12s) differ from %s (sha256 %.12s)",
					in.Workload, i, p, sha, from, want)
			}
		}
	}
	return nil
}

// childMain runs one repetition and prints its repResult.
func childMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: wlanbench child INPUT.json")
		return 2
	}
	res, err := childRun(args[0])
	if err != nil {
		res = &repResult{Err: err.Error()}
	}
	if eerr := json.NewEncoder(os.Stdout).Encode(res); eerr != nil || err != nil {
		return 1
	}
	return 0
}

func childRun(path string) (*repResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	in := &input{}
	if err := json.Unmarshal(data, in); err != nil {
		return nil, fmt.Errorf("input %s: %w", path, err)
	}
	res, _, err := runRepetition(context.Background(), in, nil, false)
	return res, err
}

// runRepetition sets up and runs one repetition in this process. obs,
// when non-nil, samples the pool's utilization during the run; keep
// retains the first pass's rows.
func runRepetition(ctx context.Context, in *input, obs *observer, keep bool) (*repResult, *rowSink, error) {
	sink := newRowSink(keep)
	t0 := time.Now()
	run, cleanup, err := setup(in, sink, obs)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer cleanup()
	ready := time.Now()
	stop := obs.sample()
	points, err := run(ctx)
	stop()
	if err != nil {
		return nil, nil, err
	}
	if points != in.Points {
		return nil, nil, fmt.Errorf("produced %d points, want %d", points, in.Points)
	}
	return &repResult{
		ReadyUnixNano: ready.UnixNano(),
		SetupS:        ready.Sub(t0).Seconds(),
		RunS:          sink.last.Sub(ready).Seconds(),
		Points:        points,
		SHAs:          sink.shas,
	}, sink, nil
}

// sample polls the pool's utilization until the returned stop is
// called, then stores the mean. A nil observer, or one whose workload
// has no pool, samples nothing.
func (obs *observer) sample() (stop func()) {
	if obs == nil || obs.util == nil {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		var sum float64
		var n int
		for {
			select {
			case <-quit:
				if n > 0 {
					obs.mean = sum / float64(n)
				}
				return
			case <-t.C:
				sum += obs.util()
				n++
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func printSamples(o options, reps int, took time.Duration, samples map[string][]float64) {
	fmt.Fprintf(os.Stderr, "wlanbench: %s seed %d: %d repetitions in %.1f s\n", o.workload, o.seed, reps, took.Seconds())
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tp25\tmedian\tp75\tn\tunit")
	for _, d := range endToEnd {
		xs := samples[d.name]
		if len(xs) == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%.6g\t%d\t%s\n", d.name, quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), len(xs), d.unit)
	}
	tw.Flush()
}
