// Package wlan is the public API of the repository: CSMA/CA WLAN
// simulation with hidden-node support and the stochastic-approximation
// MAC tuning algorithms of Krishnan & Chaporkar, "Stochastic
// Approximation Algorithm for Optimal Throughput Performance of
// Wireless LANs" (arXiv:1006.2048) — wTOP-CSMA and TORA-CSMA —
// alongside the standard 802.11 DCF and IdleSense baselines.
//
// # The Lab
//
// A Lab is the long-lived entry point. It owns a persistent simulation
// worker pool (lazily started, reused across calls) and exposes the
// three shapes every workload in the repository reduces to:
//
//	lab := wlan.NewLab()
//	defer lab.Close()
//
//	// One simulation.
//	res, err := lab.Run(ctx, wlan.Config{
//		Topology: wlan.Connected(20),
//		Scheme:   wlan.WTOPCSMA,
//		Duration: 60 * time.Second,
//	})
//
//	// A replicated declarative scenario, aggregated with CIs.
//	sum, err := lab.RunScenario(ctx, wlan.Scenario{
//		Topology: wlan.TopologySpec{Kind: wlan.TopoDisc, N: 30, Radius: 16},
//		Scheme:   string(wlan.TORACSMA),
//		Seeds:    10,
//	})
//
//	// A parameter grid, streamed point by point (cached, shardable).
//	for pt, err := range lab.Sweep(ctx, grid) { ... }
//
// Every entry point takes a context.Context: cancellation aborts at
// replication granularity (single runs advance in small simulated-time
// chunks, so they cancel promptly too) and surfaces as ErrCanceled.
// Validation failures surface as ErrInvalidConfig; use errors.Is.
// All results are deterministic: equal seeds and configs give
// bit-identical outcomes whatever the parallelism, and a Lab reused
// across calls returns exactly what one-shot calls would.
//
// A Config is judged by the same rules as a Scenario: Lab.Run turns
// its run fields into one, with the topology's stations as a custom
// layout, and validates it before either engine is built.
//
// See examples/ for weighted fairness, hidden-node comparisons and
// dynamic node churn, and examples/sweeps/ for grid files.
package wlan

import (
	"io"
	"time"

	"repro/internal/eventsim"
	"repro/internal/frame"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Scheme selects a channel-access scheme.
type Scheme string

// The four schemes of the paper's evaluation.
const (
	// DCF is the standard IEEE 802.11 exponential backoff.
	DCF Scheme = "802.11"
	// IdleSense is Heusse et al.'s AIMD on the contention window.
	IdleSense Scheme = "IdleSense"
	// WTOPCSMA is the paper's weighted-fair throughput-optimal
	// p-persistent CSMA (Kiefer–Wolfowitz on p at the AP).
	WTOPCSMA Scheme = "wTOP-CSMA"
	// TORACSMA is the paper's throughput-optimal RandomReset
	// exponential backoff (Kiefer–Wolfowitz on p0 plus stage walking).
	TORACSMA Scheme = "TORA-CSMA"
)

// Engine selects a simulation engine.
type Engine string

const (
	// EngineEvent is the continuous-time event-driven engine: carrier
	// sense, hidden nodes, RTS/CTS, frame errors, traces, churn. The
	// default.
	EngineEvent Engine = "eventsim"
	// EngineSlot is the slot-synchronous Bianchi-style engine: fully
	// connected topologies only, much faster on large saturated
	// parameter studies. It cross-validates EngineEvent in the test
	// suite. Results carry no event counts, latency histograms or
	// per-station failure counts (see Lab.Run).
	EngineSlot Engine = "slotsim"
)

// Topology re-exports the geometric model: station positions plus
// unit-disc sensing (24 m) and decoding (16 m) ranges.
type Topology = topo.Topology

// Point is a 2-D position in metres; the AP sits at the origin.
type Point = topo.Point

// Connected returns a fully connected topology: n stations on a circle
// of radius 8 m around the AP (every pair within sensing range).
func Connected(n int) *Topology {
	return topo.New(topo.Point{}, topo.CircleEdge(n, 8), topo.PaperRadii())
}

// HiddenDisc returns a topology with stations placed uniformly at random
// in a disc of the given radius (metres) around the AP. Radii above 12 m
// can produce station pairs beyond the 24 m sensing range — hidden nodes.
// Stations drawn beyond the decode radius are projected onto its rim
// (topo.Radii.Rim, derived from the radii) so every station keeps AP
// connectivity. The seed fixes the draw.
func HiddenDisc(n int, radius float64, seed int64) *Topology {
	rng := sim.NewRNG(seed)
	pts := topo.UniformDisc(n, radius, rng)
	topo.ClampToRim(pts, topo.PaperRadii())
	return topo.New(topo.Point{}, pts, topo.PaperRadii())
}

// Custom builds a topology from explicit station positions with the
// paper's radii. The AP is at the origin; every station must lie within
// the 16 m decode radius.
func Custom(stations []Point) *Topology {
	return topo.New(topo.Point{}, stations, topo.PaperRadii())
}

// Config describes one simulation run. Lab.Run judges it by the
// Scenario rules, which bound every field below.
type Config struct {
	// Topology fixes station placement. Required.
	Topology *Topology
	// Engine selects the simulation engine (default EngineEvent).
	// EngineSlot accepts only fully connected topologies and rejects
	// the continuous-time-only features: RTSCTS, FrameErrorRate, Trace,
	// Churn and on-off traffic.
	Engine Engine
	// Scheme selects the channel-access algorithm (default DCF).
	Scheme Scheme
	// Weights assigns per-station fairness weights (wTOP-CSMA only;
	// nil means unit weights). Length must match the station count.
	Weights []float64
	// Traffic holds zero (all saturated — the paper's regime), one
	// (applied to every station) or N per-station arrival processes.
	// Build entries with SaturatedTraffic, PoissonTraffic and
	// OnOffTraffic.
	Traffic []TrafficSpec
	// Churn schedules active-station counts over simulated time: at
	// each step's instant the first Active stations are active, the
	// rest depart (finishing any exchange in flight). Instants lie in
	// [0, Duration]. EngineEvent only.
	Churn []ChurnStep
	// Duration is the simulated time (default 30 s, at most 24 h).
	Duration time.Duration
	// Seed makes runs reproducible (default 1).
	Seed int64
	// UpdatePeriod is the controller window Δ (default 250 ms); an
	// explicit window lies in [1 ms, Duration].
	UpdatePeriod time.Duration
	// RTSCTS enables the RTS/CTS exchange before every data frame:
	// hidden-node collisions move onto the short control frames at the
	// cost of fixed control-rate overhead (the trade-off discussed in
	// the paper's introduction).
	RTSCTS bool
	// FrameErrorRate applies i.i.d. loss to data frames in [0, 1).
	FrameErrorRate float64
	// Trace, when non-nil, receives every completed frame. Construct
	// one with NewTraceWriter and analyse captures with AnalyzeTrace.
	Trace Tracer
}

// Tracer is the frame-capture hook: the engine hands it every frame, as
// a typed value, the moment the frame leaves the air. NewTraceWriter
// returns one that writes a JSONL capture; any type with the method
//
//	Frame(at TraceTime, f Frame, collided bool)
//
// is one too. Switch on f's concrete type (*DataFrame for data frames)
// to read its fields; f must not be retained across calls.
type Tracer = eventsim.Tracer

// TraceTime is the simulated instant a Tracer receives: nanoseconds
// since the start of the run.
type TraceTime = sim.Time

// Frame is the common view over every captured frame (data, ACK,
// beacon, RTS or CTS): its FrameType method returns the type tag.
type Frame = frame.Layer

// DataFrame is an uplink data frame from a station to the AP; its
// Source is the sending station's index.
type DataFrame = frame.Data

// TraceWriter captures the simulation's frame stream as JSON lines.
type TraceWriter = trace.Writer

// TraceSummary aggregates a capture (frame counts by type, per-station
// delivery and retry statistics, goodput).
type TraceSummary = trace.Summary

// NewTraceWriter returns a Tracer that writes a JSONL capture to w.
// Close it after the run to flush buffered lines.
func NewTraceWriter(w io.Writer) *TraceWriter { return trace.NewWriter(w) }

// AnalyzeTrace aggregates a JSONL capture produced by NewTraceWriter.
func AnalyzeTrace(r io.Reader) (*TraceSummary, error) { return trace.Analyze(r) }

// ShortTermFairness computes Jain's fairness index over sliding windows
// of `window` successful data frames from a capture, returning the
// per-window indices and their mean. A scheme can be perfectly fair over
// a whole run yet starve stations for bursts; this metric exposes that.
func ShortTermFairness(r io.Reader, window int) (indices []float64, mean float64, err error) {
	return trace.ShortTermFairness(r, window)
}

// Result re-exports the simulator's run summary.
type Result = eventsim.Result

// StationStats re-exports the per-station slice element of Result.
type StationStats = eventsim.StationStats

// OptimalAttemptProbability returns the analytic optimum p* of the
// p-persistent throughput function (Theorem 2) for n equal-weight
// stations under the paper's PHY.
func OptimalAttemptProbability(n int) float64 {
	m := model.PPersistent{PHY: model.PaperPHY()}
	return m.OptimalP(model.UnitWeights(n))
}

// MaxThroughputMbps returns the analytic saturation-throughput optimum
// S(p*) in Mbit/s for n equal-weight stations in a connected network.
func MaxThroughputMbps(n int) float64 {
	m := model.PPersistent{PHY: model.PaperPHY()}
	return m.MaxThroughput(model.UnitWeights(n)) / 1e6
}

// DCFThroughputMbps returns Bianchi's fixed-point prediction for the
// standard 802.11 DCF with the paper's parameters, in Mbit/s.
func DCFThroughputMbps(n int) float64 {
	d := model.DCF{PHY: model.PaperPHY(), Backoff: model.PaperBackoff(), N: n}
	return d.Throughput() / 1e6
}
