package scenario

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// AggStat summarises one metric across replications.
type AggStat struct {
	// Mean is the across-replication sample mean.
	Mean float64 `json:"mean"`
	// StdDev is the unbiased sample standard deviation (0 for a single
	// replication).
	StdDev float64 `json:"stddev"`
	// CI95 is the half-width of the normal-approximation 95% confidence
	// interval of the mean.
	CI95 float64 `json:"ci95"`
}

// aggregate folds per-replication values in index order — the
// fold order is fixed, so the floating-point result is bit-identical for
// any execution schedule.
func aggregate(xs []float64) AggStat {
	var w stats.Welford
	for _, x := range xs {
		w.Add(x)
	}
	return AggStat{Mean: w.Mean(), StdDev: w.StdDev(), CI95: 1.96 * w.StdErr()}
}

// LatencyStats summarises the merged delivered-packet delay histogram,
// in milliseconds.
type LatencyStats struct {
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	// Packets is the number of delivered packets the percentiles
	// summarise (all replications).
	Packets int64 `json:"packets"`
}

// CaptureStats aggregates the frame-capture post-analysis.
type CaptureStats struct {
	// Frames is the total captured frame count across replications.
	Frames int64 `json:"frames"`
	// ShortTermJain is the mean sliding-window fairness index.
	ShortTermJain AggStat `json:"short_term_jain"`
}

// Summary is the aggregate outcome of a scenario: per-replication
// metrics reduced to mean/CI statistics, plus exact sums where sums are
// the natural aggregate. It marshals to stable JSON (struct fields and
// slices only), which is what the golden files pin.
type Summary struct {
	Name         string   `json:"name"`
	Scheme       string   `json:"scheme"`
	Stations     int      `json:"stations"`
	Replications int      `json:"replications"`
	Duration     Duration `json:"duration"`
	Warmup       Duration `json:"warmup"`

	// HiddenPairs is the per-replication hidden-pair count (varies when
	// the topology redraws per seed).
	HiddenPairs AggStat `json:"hidden_pairs"`

	ThroughputMbps AggStat `json:"throughput_mbps"`
	ConvergedMbps  AggStat `json:"converged_mbps"`
	CollisionRate  AggStat `json:"collision_rate"`
	JainIndex      AggStat `json:"jain_index"`
	WeightedJain   AggStat `json:"weighted_jain"`
	APIdleSlots    AggStat `json:"ap_idle_slots"`

	// Latency merges every replication's delay histogram; JitterMs is
	// the pooled mean |ΔL| between consecutive same-station deliveries.
	Latency  LatencyStats `json:"latency"`
	JitterMs float64      `json:"jitter_ms"`

	// Exact sums across replications.
	Successes      int64  `json:"successes"`
	Collisions     int64  `json:"collisions"`
	FrameErrors    int64  `json:"frame_errors"`
	PacketsArrived int64  `json:"packets_arrived"`
	PacketsDropped int64  `json:"packets_dropped"`
	Events         uint64 `json:"events"`

	// Capture is present only for capture-enabled scenarios.
	Capture *CaptureStats `json:"capture,omitempty"`

	// Runs holds one entry per replication, in seed order, for specs
	// that set Detail.
	Runs []RunDetail `json:"runs,omitempty"`
}

// RunDetail is one replication's per-station and windowed results, in
// the engine's own units, so a caller's arithmetic on them matches the
// engine Result's exactly: JSON round-trips every float64 and time. No
// value can be NaN or ±Inf, which JSON cannot carry: every throughput
// divides delivered bits by a positive span, a control value is a
// probability and an active count is a count.
type RunDetail struct {
	// StationThroughput is each station's delivered throughput, bits/s,
	// in station-index order.
	StationThroughput []float64 `json:"station_throughput"`
	// Throughput, Control and Active sample the windowed throughput
	// (bits/s), the broadcast control variable (p or p0; empty without
	// a controller) and the active-station count at every controller
	// window boundary.
	Throughput Series `json:"throughput"`
	Control    Series `json:"control"`
	Active     Series `json:"active"`
}

// Series is a sampled time series: Values[i] at Times[i].
type Series struct {
	Times  []sim.Time `json:"times"`
	Values []float64  `json:"values"`
}

// detail extracts res's RunDetail.
func detail(res *eventsim.Result) RunDetail {
	d := RunDetail{
		StationThroughput: make([]float64, len(res.Stations)),
		Throughput:        Series{res.ThroughputSeries.Times, res.ThroughputSeries.Values},
		Control:           Series{res.ControlSeries.Times, res.ControlSeries.Values},
		Active:            Series{res.ActiveSeries.Times, res.ActiveSeries.Values},
	}
	for i, st := range res.Stations {
		d.StationThroughput[i] = st.Throughput
	}
	return d
}

// summarize reduces a spec's replications (in index order) to a Summary.
func summarize(sp *Spec, reps []*replication) *Summary {
	n := len(reps)
	var (
		hidden   = make([]float64, n)
		tput     = make([]float64, n)
		conv     = make([]float64, n)
		collRate = make([]float64, n)
		jain     = make([]float64, n)
		wjain    = make([]float64, n)
		idle     = make([]float64, n)
		stJain   = make([]float64, n)
		lat      stats.DurationHist
		jitSumNs int64
		jitCount int64
		sum      Summary
		frames   int64
		stations int
	)
	for i, rep := range reps {
		res := rep.res
		hidden[i] = float64(rep.hiddenPairs)
		tput[i] = res.Throughput / 1e6
		conv[i] = rep.converged / 1e6
		collRate[i] = res.CollisionRate()
		jain[i] = res.JainIndex()
		wjain[i] = res.WeightedJainIndex()
		idle[i] = res.APIdleSlots
		stJain[i] = rep.stJain
		lat.Merge(&res.Latency)
		jitSumNs += int64(res.JitterSum)
		jitCount += res.JitterCount
		sum.Successes += res.Successes
		sum.Collisions += res.Collisions
		sum.FrameErrors += res.FrameErrors
		sum.PacketsArrived += res.PacketsArrived
		sum.PacketsDropped += res.PacketsDropped
		sum.Events += res.EventsFired
		frames += int64(rep.frames)
		stations = len(res.Stations)
	}
	sum.Name = sp.Name
	sum.Scheme = sp.Scheme
	sum.Stations = stations
	sum.Replications = n
	sum.Duration = sp.Duration
	sum.Warmup = *sp.Warmup
	sum.HiddenPairs = aggregate(hidden)
	sum.ThroughputMbps = aggregate(tput)
	sum.ConvergedMbps = aggregate(conv)
	sum.CollisionRate = aggregate(collRate)
	sum.JainIndex = aggregate(jain)
	sum.WeightedJain = aggregate(wjain)
	sum.APIdleSlots = aggregate(idle)
	sum.Latency = LatencyStats{
		MeanMs:  lat.Mean().Seconds() * 1e3,
		P50Ms:   lat.Quantile(0.50).Seconds() * 1e3,
		P95Ms:   lat.Quantile(0.95).Seconds() * 1e3,
		P99Ms:   lat.Quantile(0.99).Seconds() * 1e3,
		MaxMs:   lat.Max().Seconds() * 1e3,
		Packets: lat.Count(),
	}
	if jitCount > 0 {
		sum.JitterMs = float64(jitSumNs) / float64(jitCount) / 1e6
	}
	if sp.Capture {
		sum.Capture = &CaptureStats{Frames: frames, ShortTermJain: aggregate(stJain)}
	}
	if sp.Detail {
		sum.Runs = make([]RunDetail, n)
		for i, rep := range reps {
			sum.Runs[i] = detail(rep.res)
		}
	}
	return &sum
}

// MarshalSummaries renders summaries as the canonical indented JSON the
// golden files and the wlansim -summary-json flag share. The byte output
// is deterministic: struct-field order is fixed and float formatting is
// Go's shortest round-trip encoding.
func MarshalSummaries(sums []*Summary) ([]byte, error) {
	out, err := json.MarshalIndent(sums, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// String renders a compact human-readable report.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-10s N=%-4d reps=%-3d", s.Name, s.Scheme, s.Stations, s.Replications)
	fmt.Fprintf(&b, " conv %.3f±%.3f Mbps", s.ConvergedMbps.Mean, s.ConvergedMbps.CI95)
	fmt.Fprintf(&b, "  coll %.1f%%", 100*s.CollisionRate.Mean)
	fmt.Fprintf(&b, "  Jain %.4f", s.JainIndex.Mean)
	if s.HiddenPairs.Mean > 0 {
		fmt.Fprintf(&b, "  hidden %.1f", s.HiddenPairs.Mean)
	}
	if s.PacketsArrived > 0 {
		fmt.Fprintf(&b, "  lat p50 %.2f ms p99 %.2f ms", s.Latency.P50Ms, s.Latency.P99Ms)
		if s.PacketsDropped > 0 {
			fmt.Fprintf(&b, "  drops %d", s.PacketsDropped)
		}
	}
	if s.Capture != nil {
		fmt.Fprintf(&b, "  frames %d  stJain %.4f", s.Capture.Frames, s.Capture.ShortTermJain.Mean)
	}
	return b.String()
}
