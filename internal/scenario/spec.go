// Package scenario is the declarative workload layer: a JSON-encodable
// Spec describes a complete simulation campaign — topology, per-station
// traffic model, MAC scheme, node churn, duration and replication count —
// and a Runner executes its replications across a worker pool with
// deterministic per-replication RNG substreams, aggregating mean/CI
// summaries that are bit-identical for any Parallelism setting.
//
// The package exists so that new workloads are data, not code: every
// hand-written examples/ main of the early repository is now a checked-in
// .json spec executed through one engine-facing path (wlansim -scenario,
// the experiment harness, and tests all fan out through the same Runner).
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// paperRadii is the geometry every validation bound in this package is
// phrased against — the same radii the builders realise, so a radii
// change moves the bounds (and the rim projection) with it.
var paperRadii = topo.PaperRadii()

// ErrInvalidSpec is wrapped by every spec/suite validation failure, so
// callers (the wlan facade in particular) can distinguish "the input is
// wrong" from "the simulation failed" with errors.Is.
var ErrInvalidSpec = errors.New("invalid spec")

// Duration is a simulated time span that marshals as a Go duration
// string ("250ms", "90s"). Plain JSON numbers are accepted as seconds.
type Duration time.Duration

// MarshalText renders the duration as its string, e.g. "1m30s", which
// encoding/json writes as a JSON string.
func (d Duration) MarshalText() ([]byte, error) {
	return []byte(time.Duration(d).String()), nil
}

// UnmarshalJSON accepts "90s"-style strings or numeric seconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err == nil {
		if math.IsNaN(secs) || math.IsInf(secs, 0) || math.Abs(secs) > 1e9 {
			return fmt.Errorf("scenario: duration %v seconds out of range", secs)
		}
		*d = Duration(secs * float64(time.Second))
		return nil
	}
	return fmt.Errorf("scenario: duration must be a string like \"90s\" or a number of seconds")
}

// Point is a station position in metres; the AP sits at the origin.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Topology family names accepted by TopologySpec.Kind.
const (
	TopoConnected = "connected" // n stations on a circle, every pair in sensing range
	TopoDisc      = "disc"      // uniform draw in a disc; radius > 12 m yields hidden pairs
	TopoClusters  = "clusters"  // two clusters either side of the AP, maximally hidden
	TopoCustom    = "custom"    // explicit station positions
)

// TopologySpec selects a topology family from internal/topo.
type TopologySpec struct {
	// Kind is one of the Topo* constants.
	Kind string `json:"kind"`
	// N is the station count (ignored for custom, which takes
	// len(Points)).
	N int `json:"n,omitempty"`
	// Radius is the circle radius (connected, default 8 m) or the disc
	// radius (disc, default 16 m). Disc stations drawn beyond the 16 m
	// decode range are projected onto the rim, as in the paper's Fig. 6–7
	// construction.
	Radius float64 `json:"radius,omitempty"`
	// Separation is the cluster distance for Kind "clusters" (default
	// 30 m — beyond the 24 m sensing radius, so every cross-cluster pair
	// is hidden).
	Separation float64 `json:"separation,omitempty"`
	// Points fixes explicit positions for Kind "custom".
	Points []Point `json:"points,omitempty"`
	// Seed fixes the random topology draw (disc). 0 derives the draw
	// from each replication's seed, so every replication sees a fresh
	// placement — the convention of the paper's hidden-node sweeps. A
	// non-zero seed pins one placement across all replications.
	Seed int64 `json:"seed,omitempty"`
}

// TrafficSpec describes one (or all) stations' packet arrival process.
type TrafficSpec struct {
	// Model is "saturated" (default), "poisson" or "onoff".
	Model string `json:"model"`
	// Rate is the mean packet rate in packets/second while emitting.
	Rate float64 `json:"rate,omitempty"`
	// OnMean/OffMean are the mean exponential phase lengths for onoff.
	OnMean  Duration `json:"on_mean,omitempty"`
	OffMean Duration `json:"off_mean,omitempty"`
	// QueueCap bounds the station queue in packets (0 applies the
	// engines' default cap; the backlog is always finite).
	QueueCap int `json:"queue_cap,omitempty"`
}

// ChurnStep pins the active-station count from a given instant: the
// first Active stations are active, the rest depart (finishing any
// exchange in flight first).
type ChurnStep struct {
	At     Duration `json:"at"`
	Active int      `json:"active"`
}

// Spec is one declarative scenario: everything needed to reproduce a
// simulation campaign from a JSON file and a seed.
type Spec struct {
	// Name identifies the scenario in summaries and golden files.
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Topology places the stations.
	Topology TopologySpec `json:"topology"`
	// Scheme is the channel-access scheme: one of the paper's four,
	// "802.11" (default), "IdleSense", "wTOP-CSMA" and "TORA-CSMA", or
	// one of the related-work baselines "SlowDecrease" and "EstimateN"
	// (see internal/scheme).
	Scheme string `json:"scheme,omitempty"`
	// Weights are per-station fairness weights (wTOP-CSMA only; nil
	// means unit weights).
	Weights []float64 `json:"weights,omitempty"`
	// Control, when set, fixes the scheme's control variable and runs
	// no controller: wTOP-CSMA's attempt probability p ∈ (0, 1], or
	// TORA-CSMA's reset probability p0 ∈ [0, 1] (with j = 0). These are
	// the open-loop cells of the paper's Figs. 2, 4, 5 and 13. A
	// pointer, because p0 = 0 is a cell of its own.
	Control *float64 `json:"control,omitempty"`
	// Traffic holds zero (all saturated), one (applied to every
	// station) or N per-station arrival processes.
	Traffic []TrafficSpec `json:"traffic,omitempty"`
	// Churn schedules node arrivals/departures.
	Churn []ChurnStep `json:"churn,omitempty"`
	// Duration is the simulated time per replication (default 30s).
	Duration Duration `json:"duration,omitempty"`
	// Warmup is excluded from converged-throughput averages. Unset
	// defaults to Duration/2; an explicit "0s" averages the whole run.
	Warmup *Duration `json:"warmup,omitempty"`
	// Seeds is the number of independent replications (default 1).
	Seeds int `json:"seeds,omitempty"`
	// Seed is the base seed; replication r runs with Seed+r (default 1).
	Seed int64 `json:"seed,omitempty"`
	// UpdatePeriod overrides the controller window Δ (default 250ms).
	UpdatePeriod Duration `json:"update_period,omitempty"`
	// RTSCTS enables the RTS/CTS exchange before every data frame.
	RTSCTS bool `json:"rtscts,omitempty"`
	// FrameErrorRate applies i.i.d. loss to data frames, in [0, 1).
	FrameErrorRate float64 `json:"frame_error_rate,omitempty"`
	// Capture observes every frame of every replication and reports
	// capture statistics (frame counts, short-term fairness) in the
	// summary.
	Capture bool `json:"capture,omitempty"`
	// CaptureWindow is the sliding window, in successful frames, of the
	// short-term fairness index (default 3·N).
	CaptureWindow int `json:"capture_window,omitempty"`
	// Detail adds one entry per replication to the summary, in seed
	// order: the per-station throughput and the windowed throughput,
	// control and active-station series.
	Detail bool `json:"detail,omitempty"`
}

// Suite is a named list of scenarios — the on-disk file format. A file
// holding a single bare Spec object is accepted too.
type Suite struct {
	Name        string `json:"name,omitempty"`
	Description string `json:"description,omitempty"`
	Scenarios   []Spec `json:"scenarios"`
}

// Resource ceilings. Decode is exposed to untrusted input (files,
// fuzzing), so validation bounds every dimension that controls memory or
// CPU rather than trusting the caller.
const (
	// MaxStations bounds the station count. Per-station state no longer
	// binds: topologies are grid-indexed (O(n) to build, no n×n
	// matrices) and a slotted DCF station costs 52 B — its 16-byte
	// record, tracker links, delivered-bits counter and 16-byte PCG
	// stream — so ≈ 5 MB at the cap. Two
	// constraints bind instead. Dense layouts that would need more than
	// topo.DefaultAdjacencyBudget materialised neighbour entries are
	// refused by the event engine at build time, so a hostile spec stays
	// memory-bounded end to end; and slotted run time grows with the
	// simulated duration a large population needs to mix. The cap stays
	// at 100 000, the largest tier the test suite validates against the
	// closed form (slotsim.TestBianchiAgreementLargeN).
	MaxStations = 100_000
	// MaxSeeds bounds replications per scenario. Generous enough for
	// trusted paper-scale sweeps routed through the runner (the
	// experiment CLI's -seeds flag lands here too); hostile input is
	// bounded on memory, not CPU — any accepted run still costs the
	// invoker wall-clock.
	MaxSeeds = 10000
	// MaxDuration bounds simulated time per replication.
	MaxDuration = Duration(24 * time.Hour)
	// MaxScenarios bounds scenarios per suite.
	MaxScenarios = 256
	// MaxChurnSteps bounds the churn schedule length.
	MaxChurnSteps = 10000
	// maxSpecBytes bounds the accepted file size.
	maxSpecBytes = 8 << 20
)

// Decode parses and validates a scenario file: either a Suite
// ({"scenarios": [...]}) or a single bare Spec object. Unknown fields
// are rejected, every numeric dimension is bounds-checked, and malformed
// input returns an error — never a panic (FuzzSpecDecode enforces this).
// The returned suite has all defaults applied.
func Decode(data []byte) (*Suite, error) {
	if len(data) > maxSpecBytes {
		return nil, fmt.Errorf("scenario: %w: file is %d bytes, limit %d", ErrInvalidSpec, len(data), maxSpecBytes)
	}
	suite := &Suite{}
	suiteErr := strictUnmarshal(data, suite)
	if suiteErr == nil && suite.Scenarios != nil {
		if err := suite.withDefaults(); err != nil {
			return nil, err
		}
		return suite, nil
	}
	// A top-level "scenarios" key means the author wrote a suite: report
	// the suite parse error rather than the (misleading) result of
	// re-parsing the same bytes as a bare Spec.
	if suiteErr != nil && looksLikeSuite(data) {
		return nil, fmt.Errorf("scenario: bad suite: %w", wrapInvalid(suiteErr))
	}
	var spec Spec
	if err := strictUnmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("scenario: not a suite ({\"scenarios\": [...]}) or a single scenario object: %w", wrapInvalid(err))
	}
	suite = &Suite{Name: spec.Name, Scenarios: []Spec{spec}}
	if err := suite.withDefaults(); err != nil {
		return nil, err
	}
	return suite, nil
}

// wrapInvalid marks err as an ErrInvalidSpec failure without double
// wrapping.
func wrapInvalid(err error) error {
	if err == nil || errors.Is(err, ErrInvalidSpec) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrInvalidSpec, err)
}

// looksLikeSuite reports whether the input is a JSON object with a
// top-level "scenarios" key (tolerant probe, used only to pick the more
// helpful of two parse errors).
func looksLikeSuite(data []byte) bool {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return false
	}
	_, ok := probe["scenarios"]
	return ok
}

// strictUnmarshal decodes JSON rejecting unknown fields and trailing
// garbage.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A second decode must hit EOF; otherwise the file has trailing
	// content (e.g. two concatenated objects).
	if dec.More() {
		return fmt.Errorf("trailing data after the first JSON value")
	}
	return nil
}

// withDefaults validates the suite and fills every default in place.
// Failures wrap ErrInvalidSpec.
func (su *Suite) withDefaults() error { return wrapInvalid(su.applyDefaults()) }

func (su *Suite) applyDefaults() error {
	if len(su.Scenarios) == 0 {
		return fmt.Errorf("scenario: suite has no scenarios")
	}
	if len(su.Scenarios) > MaxScenarios {
		return fmt.Errorf("scenario: %d scenarios exceed the limit %d", len(su.Scenarios), MaxScenarios)
	}
	seen := map[string]bool{}
	for i := range su.Scenarios {
		sp := &su.Scenarios[i]
		if sp.Name == "" {
			sp.Name = fmt.Sprintf("scenario-%d", i)
		}
		if seen[sp.Name] {
			return fmt.Errorf("scenario: duplicate scenario name %q", sp.Name)
		}
		seen[sp.Name] = true
		if err := sp.Validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", sp.Name, err)
		}
	}
	return nil
}

// Validate checks the spec and fills every default in place. It is
// idempotent, so already-defaulted specs pass unchanged. Programmatic
// builders (the sweep expander, CLIs) and the Runner call this; Decode
// applies it to every file-sourced spec automatically. Failures wrap
// ErrInvalidSpec.
func (sp *Spec) Validate() error { return wrapInvalid(sp.applyDefaults()) }

func (sp *Spec) applyDefaults() error {
	if sp.Scheme == "" {
		sp.Scheme = scheme.DCF
	}
	if err := scheme.Check(sp.Scheme); err != nil {
		return err
	}
	if err := scheme.CheckControl(sp.Scheme, sp.Control); err != nil {
		return err
	}
	if sp.Duration == 0 {
		sp.Duration = Duration(30 * time.Second)
	}
	if sp.Duration < 0 || sp.Duration > MaxDuration {
		return fmt.Errorf("duration %v outside (0, %v]", time.Duration(sp.Duration), time.Duration(MaxDuration))
	}
	if sp.Warmup == nil {
		w := sp.Duration / 2
		sp.Warmup = &w
	}
	if *sp.Warmup < 0 || *sp.Warmup >= sp.Duration {
		return fmt.Errorf("warmup %v outside [0, duration %v)", time.Duration(*sp.Warmup), time.Duration(sp.Duration))
	}
	if sp.Seeds == 0 {
		sp.Seeds = 1
	}
	if sp.Seeds < 0 || sp.Seeds > MaxSeeds {
		return fmt.Errorf("seeds %d outside [1, %d]", sp.Seeds, MaxSeeds)
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.UpdatePeriod < 0 || sp.UpdatePeriod > sp.Duration {
		return fmt.Errorf("update_period %v outside [0, duration]", time.Duration(sp.UpdatePeriod))
	}
	if sp.UpdatePeriod > 0 && sp.UpdatePeriod < Duration(time.Millisecond) {
		return fmt.Errorf("update_period %v below 1ms floods the windowed series", time.Duration(sp.UpdatePeriod))
	}
	if math.IsNaN(sp.FrameErrorRate) || sp.FrameErrorRate < 0 || sp.FrameErrorRate >= 1 {
		return fmt.Errorf("frame_error_rate %v outside [0, 1)", sp.FrameErrorRate)
	}
	if err := sp.Topology.withDefaults(); err != nil {
		return err
	}
	n := sp.Topology.N
	if err := scheme.CheckWeights(sp.Scheme, sp.Weights, n); err != nil {
		return err
	}
	if _, err := arrivals(sp.Traffic, n); err != nil {
		return err
	}
	if len(sp.Churn) > MaxChurnSteps {
		return fmt.Errorf("%d churn steps exceed the limit %d", len(sp.Churn), MaxChurnSteps)
	}
	for i, c := range sp.Churn {
		if c.At < 0 || c.At > sp.Duration {
			return fmt.Errorf("churn[%d].at %v outside [0, duration]", i, time.Duration(c.At))
		}
		if c.Active < 0 || c.Active > n {
			return fmt.Errorf("churn[%d].active %d outside [0, %d]", i, c.Active, n)
		}
	}
	if sp.CaptureWindow < 0 || sp.CaptureWindow > 1<<20 {
		return fmt.Errorf("capture_window %d outside [0, %d]", sp.CaptureWindow, 1<<20)
	}
	if sp.Capture && sp.CaptureWindow == 0 {
		sp.CaptureWindow = 3 * n
	}
	return nil
}

// withDefaults validates the topology spec and fills defaults in place.
func (ts *TopologySpec) withDefaults() error {
	for _, p := range ts.Points {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("topology: non-finite point (%v, %v)", p.X, p.Y)
		}
	}
	if math.IsNaN(ts.Radius) || math.IsInf(ts.Radius, 0) || ts.Radius < 0 {
		return fmt.Errorf("topology: radius %v must be a non-negative finite number", ts.Radius)
	}
	if math.IsNaN(ts.Separation) || math.IsInf(ts.Separation, 0) || ts.Separation < 0 {
		return fmt.Errorf("topology: separation %v must be a non-negative finite number", ts.Separation)
	}
	switch ts.Kind {
	case "", TopoConnected:
		ts.Kind = TopoConnected
		if ts.Radius == 0 {
			ts.Radius = 8
		}
		// Opposite points on the circle are a diameter apart, so staying
		// within half the sensing radius keeps every pair connected.
		if ts.Radius > paperRadii.Sensing/2 {
			return fmt.Errorf("topology: connected circle radius %v exceeds %g m (pairs would fall out of sensing range)", ts.Radius, paperRadii.Sensing/2)
		}
	case TopoDisc:
		if ts.Radius == 0 {
			ts.Radius = 16
		}
		if ts.Radius > 64 {
			return fmt.Errorf("topology: disc radius %v exceeds 64 m", ts.Radius)
		}
	case TopoClusters:
		if ts.Separation == 0 {
			ts.Separation = 30
		}
		if ts.Separation/2 > paperRadii.Rim() {
			return fmt.Errorf("topology: cluster separation %v places stations beyond the %g m decode radius", ts.Separation, paperRadii.Transmission)
		}
	case TopoCustom:
		if len(ts.Points) == 0 {
			return fmt.Errorf("topology: no stations (custom kind needs points)")
		}
		if ts.N != 0 && ts.N != len(ts.Points) {
			return fmt.Errorf("topology: n=%d contradicts %d points", ts.N, len(ts.Points))
		}
		for i, p := range ts.Points {
			if math.Hypot(p.X, p.Y) > paperRadii.Transmission {
				return fmt.Errorf("topology: point %d at (%v, %v) exceeds the %g m AP decode radius", i, p.X, p.Y, paperRadii.Transmission)
			}
		}
		ts.N = len(ts.Points)
	default:
		return fmt.Errorf("topology: unknown kind %q (want %s, %s, %s or %s)",
			ts.Kind, TopoConnected, TopoDisc, TopoClusters, TopoCustom)
	}
	if ts.Kind != TopoCustom && len(ts.Points) > 0 {
		return fmt.Errorf("topology: points are only valid with kind %q", TopoCustom)
	}
	if ts.N < 1 || ts.N > MaxStations {
		return fmt.Errorf("topology: station count %d outside [1, %d]", ts.N, MaxStations)
	}
	if ts.Kind == TopoClusters {
		// TwoClusters spreads members along Y by 0.1·(i/2), so the far
		// corner of a large cluster can leave the AP decode radius even
		// when Separation/2 is inside it.
		if far := math.Hypot(ts.Separation/2, 0.1*float64((ts.N-1)/2)); far > paperRadii.Rim() {
			return fmt.Errorf("topology: %d clustered stations spread to %.2f m from the AP, beyond the %g m decode radius", ts.N, far, paperRadii.Transmission)
		}
	}
	return nil
}

// arrivals checks that a traffic list holds 0, 1 (applied to every
// station) or n entries, converts and validates each, and expands the
// list to one engine spec per station — or nil when every station is
// saturated (the engines' fast path). Spec validation and the engine
// assembly both call it, so a list is judged the same way everywhere.
func arrivals(list []TrafficSpec, n int) ([]traffic.Spec, error) {
	switch len(list) {
	case 0:
		return nil, nil
	case 1, n:
	default:
		return nil, fmt.Errorf("traffic must list 0, 1 or %d entries, got %d", n, len(list))
	}
	out := make([]traffic.Spec, n)
	unsat := false
	for i := range out {
		j := 0
		if len(list) == n {
			j = i
		}
		t := &list[j]
		kind, err := traffic.KindFromString(t.Model)
		ts := traffic.Spec{
			Kind:     kind,
			Rate:     t.Rate,
			OnMean:   sim.Duration(t.OnMean),
			OffMean:  sim.Duration(t.OffMean),
			QueueCap: t.QueueCap,
		}
		if err == nil {
			err = ts.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("traffic[%d]: %w", j, err)
		}
		out[i] = ts
		unsat = unsat || ts.Unsaturated()
	}
	if !unsat {
		return nil, nil
	}
	return out, nil
}

// Quick returns a copy scaled for fast CI runs: simulated time capped at
// 3 s (churn instants and warmup rescaled proportionally) and at most 2
// replications. The transform is deterministic, so golden summaries
// generated at quick scale are reproducible anywhere.
func (sp Spec) Quick() Spec {
	q := sp
	const quickDuration = Duration(3 * time.Second)
	if q.Duration > quickDuration {
		ratio := float64(quickDuration) / float64(q.Duration)
		if q.Warmup != nil {
			w := Duration(float64(*q.Warmup) * ratio)
			// Warmup and Duration scale independently through float
			// truncation, so clamp to keep the warmup < duration
			// invariant: a spec that validated at full scale must stay
			// valid at quick scale.
			if w >= quickDuration {
				w = quickDuration - 1
			}
			if w < 0 {
				w = 0
			}
			q.Warmup = &w
		}
		q.Churn = append([]ChurnStep(nil), sp.Churn...)
		for i := range q.Churn {
			at := Duration(float64(q.Churn[i].At) * ratio)
			// Same clamp for the at ≤ duration invariant.
			if at > quickDuration {
				at = quickDuration
			}
			if at < 0 {
				at = 0
			}
			q.Churn[i].At = at
		}
		// An explicit controller window must stay inside the shortened
		// run (and above the 1 ms validation floor) so a spec that is
		// valid at full scale remains valid at quick scale.
		if q.UpdatePeriod > 0 {
			q.UpdatePeriod = Duration(float64(q.UpdatePeriod) * ratio)
			if q.UpdatePeriod < Duration(time.Millisecond) {
				q.UpdatePeriod = Duration(time.Millisecond)
			}
		}
		q.Duration = quickDuration
	}
	if q.Seeds > 2 {
		q.Seeds = 2
	}
	return q
}

// Quick applies Spec.Quick to every scenario of the suite.
func (su Suite) Quick() *Suite {
	out := su
	out.Scenarios = make([]Spec, len(su.Scenarios))
	for i, sp := range su.Scenarios {
		out.Scenarios[i] = sp.Quick()
	}
	return &out
}
