package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/eventsim"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/slotsim"
	"repro/internal/svc"
	"repro/internal/sweep"
	"repro/wlan"
)

// perLayer are the metrics a traced run reports. They must match
// BENCHMARK.json's per_layer list; README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"sim.rng_seed_ns", "ns"},
	{"sim.rng_bytes", "B"},
	{"mac.draw_ns.dcf", "ns"},
	{"mac.draw_ns.ppersistent", "ns"},
	{"mac.draw_ns.randomreset", "ns"},
	{"mac.draw_ns.idlesense", "ns"},
	{"core.update_ns.wtop", "ns"},
	{"core.update_ns.tora", "ns"},
	{"topo.build_us_p50", "us"},
	{"topo.build_us_p99", "us"},
	{"scheme.build_us", "us"},
	{"eventsim.reset_us", "us"},
	{"eventsim.run_s", "s"},
	{"eventsim.ns_per_event", "ns"},
	{"eventsim.events_per_point", "count"},
	{"slotsim.new_s", "s"},
	{"slotsim.bytes_per_station", "B"},
	{"slotsim.run_s", "s"},
	{"slotsim.busy_periods_per_s", "1/s"},
	{"scenario.utilization_mean", "ratio"},
	{"scenario.parallel_efficiency", "ratio"},
	{"sweep.expand_ms", "ms"},
	{"sweep.cache_put_us_p50", "us"},
	{"sweep.cache_put_us_p99", "us"},
	{"sweep.cache_get_us_p50", "us"},
	{"sweep.cache_get_us_p99", "us"},
	{"sweep.encode_us", "us"},
	{"sweep.bytes_per_row", "B"},
	{"svc.new_coordinator_ms", "ms"},
	{"svc.lease_rtt_p50_ms", "ms"},
	{"svc.lease_rtt_p99_ms", "ms"},
	{"svc.complete_rtt_p50_ms", "ms"},
	{"svc.complete_rtt_p99_ms", "ms"},
	{"svc.requests_per_point", "count"},
	{"svc.body_bytes_per_point", "B"},
	{"runtime.alloc_bytes_per_point", "B"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// maxUnattributed is the largest share of a traced pass that may fall
// outside every layer span before the ledger counts as unreconciled.
const maxUnattributed = 0.05

// span is one timed call into a layer. Count and Bytes record the work
// the call did, where the layer has a natural unit: events fired, busy
// periods, stations built, bytes encoded or moved over the wire.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Point  int    `json:"point"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. The traced pass is
// serial, so spans nest strictly and the open-span stack gives each its
// parent.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span; point is the grid point it serves, or -1.
func (t *tracer) begin(name string, point int) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Point: point, Start: time.Since(t.origin).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) *span {
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("trace: span %q closed out of order", t.spans[id].Name))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.origin).Nanoseconds()
	return &t.spans[id]
}

// selfTimes returns each span's duration minus its children's, over
// the spans of one root, root first.
func selfTimes(spans []span) []time.Duration {
	base := spans[0].ID
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] += spans[i].dur()
		if p := spans[i].Parent - base; p >= 0 {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// traceRun runs the traced ledger of o.workload at GOMAXPROCS 1, then
// costs every layer that workload does not reach on the other workloads
// at test size, so that every traced run reports every per-layer metric.
// The layer micro-probes (RNG seeding, MAC draws, controller updates)
// run last.
func traceRun(o options) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	tr := newTracer()
	rep := &report{Metrics: map[string]metric{}}
	vals, points, err := runLedger(ctx, o.workload, o.seed, o.tiny, o.workDir, tr)
	rep.Attempted += points
	if err != nil {
		rep.Failed += points
		return rep, fmt.Errorf("%s: traced run: %w", o.workload, err)
	}
	for _, w := range probeOrder {
		if w == o.workload || covered(vals) {
			continue
		}
		pv, pp, err := runLedger(ctx, w, o.seed, true, o.workDir, tr)
		rep.Attempted += pp
		if err != nil {
			rep.Failed += pp
			return rep, fmt.Errorf("%s: layer probe on %s: %w", o.workload, w, err)
		}
		for k, v := range pv {
			if _, ok := vals[k]; !ok {
				vals[k] = v
			}
		}
	}
	runtime.GOMAXPROCS(1)
	microProbes(o.seed, tr, vals)
	if err := writeSpans(o, tr); err != nil {
		return rep, err
	}
	for _, d := range perLayer {
		v, ok := vals[d.name]
		if !ok {
			return rep, fmt.Errorf("%s: traced run measured no %s", o.workload, d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if u := vals["trace.unattributed_frac"]; u > maxUnattributed {
		return rep, fmt.Errorf("%s: %.1f%% of the traced pass is outside every layer span (limit %.0f%%)", o.workload, 100*u, 100*maxUnattributed)
	}
	rep.Correct = true
	return rep, nil
}

// probeOrder is the order in which the other workloads are traced at
// test size to cost the layers the traced workload does not reach: the
// campaign grid's short points first, since they exercise the most
// layers per second.
var probeOrder = []string{campaignSmall, campaignResume, svcLoopback, scale100k, paperHidden}

// covered reports whether vals already holds every per-layer metric
// except those the micro-probes supply.
func covered(vals map[string]float64) bool {
	for _, d := range perLayer {
		if _, ok := vals[d.name]; !ok && !microProbed(d.name) {
			return false
		}
	}
	return true
}

func microProbed(name string) bool {
	return strings.HasPrefix(name, "sim.") || strings.HasPrefix(name, "mac.") || strings.HasPrefix(name, "core.")
}

// runLedger runs one workload three times in this process and returns
// the per-layer metrics its own work reaches:
//
//   - untraced at GOMAXPROCS 1: the reference rows, allocation and GC
//     cost, and the wall time the traced pass is compared with;
//   - untraced at GOMAXPROCS 2: parallel efficiency and pool utilization;
//   - traced at GOMAXPROCS 1: the workload's work driven layer by layer,
//     reconciled against the reference rows.
func runLedger(ctx context.Context, workload string, seed int64, tiny bool, workDir string, tr *tracer) (map[string]float64, int, error) {
	dir := filepath.Join(workDir, "ledger-"+workload)
	in, err := prepare(workload, seed, tiny, dir)
	if err != nil {
		return nil, 0, err
	}
	m := map[string]float64{}
	points := 0

	runtime.GOMAXPROCS(1)
	var ms0, ms1 runtime.MemStats
	cpu0 := readCPU()
	runtime.ReadMemStats(&ms0)
	r1, sink1, err := runRepetition(ctx, in, nil, true)
	if err != nil {
		return nil, 0, fmt.Errorf("untraced pass at GOMAXPROCS 1: %w", err)
	}
	runtime.ReadMemStats(&ms1)
	cpu1 := readCPU()
	points += r1.Points
	m["runtime.alloc_bytes_per_point"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(r1.Points)
	if used := cpu1.used - cpu0.used; used > 0 {
		m["runtime.gc_cpu_frac"] = (cpu1.gc - cpu0.gc) / used
	}
	release()

	runtime.GOMAXPROCS(2)
	obs := &observer{}
	r2, _, err := runRepetition(ctx, in, obs, false)
	if err != nil {
		return nil, points, fmt.Errorf("untraced pass at GOMAXPROCS 2: %w", err)
	}
	points += r2.Points
	if err := verify(in, []*repResult{r1, r2}); err != nil {
		return nil, points, err
	}
	m["scenario.parallel_efficiency"] = r1.wall() / (2 * r2.wall())
	if obs.util != nil {
		m["scenario.utilization_mean"] = obs.mean
	}
	release()

	runtime.GOMAXPROCS(1)
	ref := sink1.keep.Bytes()
	spans, err := traceRoot(ctx, tr, workload, in, ref)
	if err != nil {
		return nil, points, err
	}
	points += in.Points
	self := selfTimes(spans)
	m["trace.unattributed_frac"] = self[0].Seconds() / spans[0].dur().Seconds()
	m["trace.overhead_frac"] = spans[0].dur().Seconds()/r1.wall() - 1
	layerMetrics(spans, in, m)
	if !tiny {
		printLedger(workload, spans, self)
	}
	release()

	// campaign-resume's cache is filled by an untimed cold pass before its
	// repetitions. Tracing that pass costs the cache writes, which no
	// timed repetition makes.
	if workload == campaignResume {
		fill := *in
		fill.Workload, fill.Passes, fill.Points = campaignSmall, 0, in.Points/in.Passes
		fill.CacheDir = filepath.Join(dir, "fill-cache")
		spans, err := traceRoot(ctx, tr, workload+".fill", &fill, ref)
		if err != nil {
			return nil, points, err
		}
		points += fill.Points
		if !tiny {
			printLedger(workload+".fill", spans, selfTimes(spans))
		}
		fm := map[string]float64{}
		layerMetrics(spans, &fill, fm)
		for k, v := range fm {
			if _, ok := m[k]; !ok {
				m[k] = v
			}
		}
		release()
	}
	return m, points, nil
}

// traceRoot runs the traced pass of in under a root span named name and
// returns the spans it recorded, root first.
func traceRoot(ctx context.Context, tr *tracer, name string, in *input, ref []byte) ([]span, error) {
	pass, err := tracedPass(ctx, in, ref, tr)
	if err != nil {
		return nil, err
	}
	base := len(tr.spans)
	root := tr.begin(name, -1)
	err = pass()
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	return tr.spans[base:], nil
}

// release returns the previous pass's memory before the next one
// starts, so passes do not inherit each other's heap.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// cpuStats is the runtime's estimate of CPU time spent in GC and in all
// Go code, GC included.
type cpuStats struct{ gc, used float64 }

func readCPU() cpuStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return cpuStats{gc: v(0), used: v(1) - v(2)}
}

// tracedPass prepares the workload's traced pass. Decoding the grid and
// the reference rows happens here, outside the timed pass.
func tracedPass(ctx context.Context, in *input, ref []byte, tr *tracer) (func() error, error) {
	if in.Workload == scale100k {
		var want scaleRow
		if err := json.Unmarshal(ref, &want); err != nil {
			return nil, fmt.Errorf("reference row: %w", err)
		}
		return func() error { return tracedScale(in, &want, tr) }, nil
	}
	g, err := wlan.DecodeSweep(in.Grid)
	if err != nil {
		return nil, err
	}
	rows, err := parseRows(ref)
	if err != nil {
		return nil, err
	}
	if in.Workload == svcLoopback {
		return func() error { return tracedSvc(ctx, g, rows, ref, tr) }, nil
	}
	return func() error { return tracedSweep(in, g, rows, ref, tr) }, nil
}

// refRow is one row of the untraced pass, decoded.
type refRow struct {
	summary json.RawMessage
	sum     *scenario.Summary
}

func parseRows(data []byte) ([]refRow, error) {
	var rows []refRow
	for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var r struct {
			Index   int             `json:"index"`
			Summary json.RawMessage `json:"summary"`
		}
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("reference row %d: %w", i, err)
		}
		if r.Index != i {
			return nil, fmt.Errorf("reference row %d carries index %d", i, r.Index)
		}
		sum := &scenario.Summary{}
		if err := json.Unmarshal(r.Summary, sum); err != nil {
			return nil, fmt.Errorf("reference row %d summary: %w", i, err)
		}
		rows = append(rows, refRow{summary: r.Summary, sum: sum})
	}
	return rows, nil
}

// tracedSweep runs a sweep workload's points the way the sweep runner
// does at parallelism 1 — expand; simulate, and write the cache when
// one is given, or read every point from the cache (campaign-resume);
// encode the row — with a span around each layer call. Its rows must
// equal the untraced rows byte for byte.
func tracedSweep(in *input, g *sweep.Grid, rows []refRow, ref []byte, tr *tracer) error {
	id := tr.begin("sweep.expand", -1)
	pts, err := sweep.Expand(g)
	tr.end(id)
	if err != nil {
		return err
	}
	if len(pts) != len(rows) {
		return fmt.Errorf("grid expands to %d points, untraced pass wrote %d rows", len(pts), len(rows))
	}
	var cache *sweep.Cache
	if in.CacheDir != "" {
		if cache, err = sweep.OpenCache(in.CacheDir); err != nil {
			return err
		}
	}
	var ev *eventsim.Simulator
	var out bytes.Buffer
	for p := 0; p < max(in.Passes, 1); p++ {
		out.Reset()
		for i, pt := range pts {
			sum := rows[i].sum
			if in.Workload == campaignResume {
				id := tr.begin("sweep.cache_get", i)
				got, ok := cache.Get(pt.Key)
				tr.end(id)
				if !ok {
					return fmt.Errorf("point %d (%s) is not in the cache", i, pt.Name)
				}
				got.Name = pt.Name
				sum = got
			} else {
				if err := simulate(tr, &ev, &pt.Spec, i, sum); err != nil {
					return err
				}
				if cache != nil {
					id := tr.begin("sweep.cache_put", i)
					err := cache.Put(pt.Key, &pt.Spec, sum)
					tr.end(id)
					if err != nil {
						return err
					}
				}
			}
			id := tr.begin("sweep.encode", i)
			n := out.Len()
			err := sweep.WriteRow(&out, &sweep.PointResult{Point: pt, Summary: sum})
			tr.end(id).Bytes = int64(out.Len() - n)
			if err != nil {
				return err
			}
		}
		if err := sameRows(out.Bytes(), ref); err != nil {
			return fmt.Errorf("pass %d: %w", p, err)
		}
	}
	return nil
}

// simulate builds and runs every replication of one point layer by
// layer, on one reused simulator as a runner worker's arena does, and
// checks its exact sums against the untraced row.
func simulate(tr *tracer, ev **eventsim.Simulator, sp *scenario.Spec, i int, want *scenario.Summary) error {
	if len(sp.Traffic) > 0 || len(sp.Churn) > 0 || sp.Capture {
		return fmt.Errorf("point %d: the traced pass covers saturated, churn-free, capture-free points only", i)
	}
	var events uint64
	var successes, collisions int64
	for rep := 0; rep < sp.Seeds; rep++ {
		seed := sp.Seed + int64(rep)
		id := tr.begin("topo.build", i)
		tp, err := scenario.BuildTopology(&sp.Topology, seed)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("scheme.build", i)
		policies, controller, err := scheme.Build(sp.Scheme, sp.Weights, tp.N())
		tr.end(id)
		if err != nil {
			return err
		}
		cfg := eventsim.Config{
			PHY:            model.PaperPHY(),
			Topology:       tp,
			Policies:       policies,
			Controller:     controller,
			UpdatePeriod:   sim.Duration(sp.UpdatePeriod),
			Seed:           seed,
			RTSCTS:         sp.RTSCTS,
			FrameErrorRate: sp.FrameErrorRate,
		}
		if *ev == nil {
			id = tr.begin("eventsim.new", i)
			*ev, err = eventsim.New(cfg)
		} else {
			id = tr.begin("eventsim.reset", i)
			err = (*ev).Reset(cfg)
		}
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("eventsim.run", i)
		res := (*ev).Run(sim.Duration(sp.Duration))
		tr.end(id).Count = int64(res.EventsFired)
		events += res.EventsFired
		successes += res.Successes
		collisions += res.Collisions
	}
	if events != want.Events || successes != want.Successes || collisions != want.Collisions {
		return fmt.Errorf("point %d (%s): traced events/successes/collisions %d/%d/%d, untraced row %d/%d/%d",
			i, sp.Name, events, successes, collisions, want.Events, want.Successes, want.Collisions)
	}
	return nil
}

// sameRows reports the first row where got and want differ.
func sameRows(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < min(len(g), len(w)); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Errorf("row %d differs from the untraced row", i)
		}
	}
	return fmt.Errorf("traced pass wrote %d rows, untraced pass %d", len(g), len(w))
}

// tracedSvc runs the svc-loopback campaign with the bench as its single
// worker: lease, simulate each point layer by layer, complete with the
// untraced summary. A RoundTripper on the client times every request.
// The coordinator's merged rows must equal the untraced rows.
func tracedSvc(ctx context.Context, g *sweep.Grid, rows []refRow, ref []byte, tr *tracer) error {
	var out bytes.Buffer
	id := tr.begin("svc.new_coordinator", -1)
	c, err := svc.NewCoordinator(svc.CoordinatorConfig{Grid: g, Out: &out})
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("svc.serve", -1)
	srv := httptest.NewServer(c.Handler())
	tr.end(id)
	transport := &http.Transport{}
	client := &svc.Client{BaseURL: srv.URL, HTTPClient: &http.Client{Transport: &spanTransport{base: transport, tr: tr}}}
	var ev *eventsim.Simulator
	err = func() error {
		for {
			id := tr.begin("svc.lease", -1)
			lease, err := client.Lease(ctx, &svc.LeaseRequest{WorkerID: "traced"})
			tr.end(id)
			switch {
			case err != nil:
				return err
			case lease.Failed:
				return fmt.Errorf("coordinator abandoned the campaign")
			case lease.Done:
				return nil
			case len(lease.Points) == 0:
				return fmt.Errorf("the only worker was granted an empty lease")
			}
			req := &svc.CompleteRequest{LeaseID: lease.LeaseID, WorkerID: "traced"}
			for _, lp := range lease.Points {
				id := tr.begin("svc.decode", lp.Index)
				sp := &scenario.Spec{}
				err := json.Unmarshal(lp.Spec, sp)
				tr.end(id)
				if err != nil {
					return err
				}
				if err := simulate(tr, &ev, sp, lp.Index, rows[lp.Index].sum); err != nil {
					return err
				}
				req.Points = append(req.Points, svc.CompletedPoint{Index: lp.Index, Key: lp.Key, Summary: rows[lp.Index].summary})
			}
			id = tr.begin("svc.complete", -1)
			done, err := client.Complete(ctx, req)
			tr.end(id)
			if err != nil {
				return err
			}
			if done.Done {
				return nil
			}
		}
	}()
	id = tr.begin("svc.close", -1)
	srv.Close()
	transport.CloseIdleConnections()
	tr.end(id)
	if err != nil {
		return err
	}
	return sameRows(out.Bytes(), ref)
}

// spanTransport opens a span per control-plane request, named by its
// path, that closes when the response body has been read: the round
// trip the worker waits for. It counts the bytes of both bodies.
type spanTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.begin("svc.rtt."+strings.TrimPrefix(req.URL.Path, "/v1/"), -1)
	t.tr.spans[id].Bytes = max(req.ContentLength, 0)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.tr, id: id}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	tr   *tracer
	id   int
	done bool
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.tr.spans[b.id].Bytes += int64(n)
	if err != nil {
		b.close()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.close()
	return b.ReadCloser.Close()
}

func (b *spanBody) close() {
	if !b.done {
		b.done = true
		b.tr.end(b.id)
	}
}

// tracedScale builds the 100k-station simulator and runs both segments
// with a span around each step. Its counts must equal the untraced run's.
func tracedScale(in *input, want *scaleRow, tr *tracer) error {
	n := in.Stations
	id := tr.begin("mac.policies", -1)
	policies := make([]mac.Policy, n)
	for i := range policies {
		policies[i] = mac.NewStandardDCF(n, n)
	}
	tr.end(id)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	id = tr.begin("slotsim.new", -1)
	s, err := slotsim.New(slotsim.Config{Policies: policies, Seed: in.Seed})
	sp := tr.end(id)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	sp.Count, sp.Bytes = int64(n), int64(ms1.TotalAlloc-ms0.TotalAlloc)
	id = tr.begin("slotsim.run", -1)
	row, err := runScale(s, in)
	sp = tr.end(id)
	if err != nil {
		return err
	}
	sp.Count = row.Successes + row.Collisions
	if *row != *want {
		return fmt.Errorf("traced run %+v differs from the untraced run %+v", *row, *want)
	}
	return nil
}

// layerMetrics derives the per-layer metrics from one ledger's spans.
// A metric is set only when the workload reached its layer.
func layerMetrics(spans []span, in *input, m map[string]float64) {
	by := map[string][]*span{}
	for i := range spans {
		by[spans[i].Name] = append(by[spans[i].Name], &spans[i])
	}
	durs := func(name string) []float64 {
		var xs []float64
		for _, s := range by[name] {
			xs = append(xs, s.dur().Seconds())
		}
		return xs
	}
	total := func(name string) (secs float64, count, bytes int64) {
		for _, s := range by[name] {
			secs += s.dur().Seconds()
			count += s.Count
			bytes += s.Bytes
		}
		return
	}
	gridPoints := float64(in.Points / max(in.Passes, 1))
	if xs := durs("topo.build"); len(xs) > 0 {
		m["topo.build_us_p50"] = 1e6 * quantile(xs, 0.5)
		m["topo.build_us_p99"] = 1e6 * quantile(xs, 0.99)
	}
	if xs := durs("scheme.build"); len(xs) > 0 {
		m["scheme.build_us"] = 1e6 * quantile(xs, 0.5)
	}
	if xs := durs("eventsim.reset"); len(xs) > 0 {
		m["eventsim.reset_us"] = 1e6 * quantile(xs, 0.5)
	}
	if secs, events, _ := total("eventsim.run"); events > 0 {
		m["eventsim.run_s"] = secs
		m["eventsim.ns_per_event"] = 1e9 * secs / float64(events)
		m["eventsim.events_per_point"] = float64(events) / gridPoints
	}
	if xs := durs("sweep.expand"); len(xs) > 0 {
		m["sweep.expand_ms"] = 1e3 * quantile(xs, 0.5)
	}
	if xs := durs("sweep.cache_put"); len(xs) > 0 {
		m["sweep.cache_put_us_p50"] = 1e6 * quantile(xs, 0.5)
		m["sweep.cache_put_us_p99"] = 1e6 * quantile(xs, 0.99)
	}
	if xs := durs("sweep.cache_get"); len(xs) > 0 {
		m["sweep.cache_get_us_p50"] = 1e6 * quantile(xs, 0.5)
		m["sweep.cache_get_us_p99"] = 1e6 * quantile(xs, 0.99)
	}
	if xs := durs("sweep.encode"); len(xs) > 0 {
		_, _, bytes := total("sweep.encode")
		m["sweep.encode_us"] = 1e6 * quantile(xs, 0.5)
		m["sweep.bytes_per_row"] = float64(bytes) / float64(len(xs))
	}
	if xs := durs("svc.new_coordinator"); len(xs) > 0 {
		m["svc.new_coordinator_ms"] = 1e3 * xs[0]
	}
	if xs := durs("svc.rtt.lease"); len(xs) > 0 {
		cs := durs("svc.rtt.complete")
		_, _, lb := total("svc.rtt.lease")
		_, _, cb := total("svc.rtt.complete")
		m["svc.lease_rtt_p50_ms"] = 1e3 * quantile(xs, 0.5)
		m["svc.lease_rtt_p99_ms"] = 1e3 * quantile(xs, 0.99)
		m["svc.complete_rtt_p50_ms"] = 1e3 * quantile(cs, 0.5)
		m["svc.complete_rtt_p99_ms"] = 1e3 * quantile(cs, 0.99)
		m["svc.requests_per_point"] = float64(len(xs)+len(cs)) / gridPoints
		m["svc.body_bytes_per_point"] = float64(lb+cb) / gridPoints
	}
	if secs, stations, bytes := total("slotsim.new"); stations > 0 {
		m["slotsim.new_s"] = secs
		m["slotsim.bytes_per_station"] = float64(bytes) / float64(stations)
	}
	if secs, busy, _ := total("slotsim.run"); busy > 0 {
		m["slotsim.run_s"] = secs
		m["slotsim.busy_periods_per_s"] = float64(busy) / secs
	}
}

// microProbeReps is how many timed batches each micro-probe runs; the
// median batch is reported.
const microProbeReps = 5

// microProbes times the per-call layers no workload span can resolve:
// RNG seeding, one MAC backoff draw with its outcome, and one controller
// window update. Each runs in batches under a span; the median batch
// gives the per-call cost.
func microProbes(seed int64, tr *tracer, m map[string]float64) {
	batch := func(name string, calls int, fn func()) float64 {
		var per []float64
		for r := 0; r < microProbeReps; r++ {
			id := tr.begin(name, -1)
			fn()
			s := tr.end(id)
			s.Count = int64(calls)
			per = append(per, float64(s.dur().Nanoseconds())/float64(calls))
		}
		return quantile(per, 0.5)
	}

	const seeds = 500
	base := baseSeed(seed)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	keep := make([]*sim.RNG, seeds)
	for i := range keep {
		keep[i] = sim.NewRNG(base + int64(i))
	}
	runtime.ReadMemStats(&ms1)
	m["sim.rng_bytes"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / seeds
	m["sim.rng_seed_ns"] = batch("sim.rng_seed", seeds, func() {
		for i := range keep {
			keep[i] = sim.NewRNG(base + int64(i))
		}
	})

	const draws = 100_000
	for _, p := range []struct{ metric, scheme string }{
		{"mac.draw_ns.dcf", scheme.DCF},
		{"mac.draw_ns.ppersistent", scheme.WTOP},
		{"mac.draw_ns.randomreset", scheme.TORA},
		{"mac.draw_ns.idlesense", scheme.IdleSense},
	} {
		policies, _, err := scheme.Build(p.scheme, nil, 1)
		if err != nil {
			panic(err) // the four paper schemes always build
		}
		pol := policies[0]
		obs, _ := pol.(mac.MediumObserver)
		rng := sim.NewRNG(base)
		m[p.metric] = batch("mac.draw."+p.scheme, draws, func() {
			for i := 0; i < draws; i++ {
				k := pol.NextBackoff(rng)
				if k&1 == 0 {
					pol.OnSuccess(rng)
				} else {
					pol.OnFailure(rng)
				}
				if obs != nil {
					obs.ObserveTransmission(float64(k & 7))
				}
			}
		})
	}

	const windows = 20_000
	rng := sim.NewRNG(base)
	tput := make([]float64, windows)
	for i := range tput {
		tput[i] = 20e6 * (0.9 + 0.2*rng.Float64())
	}
	for _, p := range []struct{ metric, scheme string }{
		{"core.update_ns.wtop", scheme.WTOP},
		{"core.update_ns.tora", scheme.TORA},
	} {
		m[p.metric] = batch("core.update."+p.scheme, windows, func() {
			_, ctl, err := scheme.Build(p.scheme, nil, 1)
			if err != nil {
				panic(err)
			}
			for _, y := range tput {
				ctl.OnWindowEnd(y)
			}
		})
	}
}

// printLedger prints where the traced pass's time went — self time and
// call count per span name — to standard error.
func printLedger(workload string, spans []span, self []time.Duration) {
	type row struct {
		self  time.Duration
		calls int
	}
	by := map[string]*row{}
	var names []string
	for i := 1; i < len(spans); i++ {
		r := by[spans[i].Name]
		if r == nil {
			r = &row{}
			by[spans[i].Name] = r
			names = append(names, spans[i].Name)
		}
		r.self += self[i]
		r.calls++
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	total := spans[0].dur().Seconds()
	fmt.Fprintf(os.Stderr, "wlanbench: %s traced pass %.3f s at GOMAXPROCS 1, self time by span:\n", workload, total)
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "span\tcalls\tself s\tshare")
	for _, n := range names {
		r := by[n]
		fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.1f%%\n", n, r.calls, r.self.Seconds(), 100*r.self.Seconds()/total)
	}
	fmt.Fprintf(tw, "(unattributed)\t\t%.4f\t%.1f%%\n", self[0].Seconds(), 100*self[0].Seconds()/total)
	tw.Flush()
}

// writeSpans writes every span of the run to o.spans in one piece.
func writeSpans(o options, tr *tracer) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{o.workload, o.seed, tr.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.spans), 0o755); err != nil {
		return err
	}
	return os.WriteFile(o.spans, data, 0o644)
}
