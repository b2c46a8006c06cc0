// Package traffic models packet arrival processes for the simulators.
//
// The paper's evaluation is saturated-senders-only: every station always
// has a frame queued, so the MAC never idles for lack of work. Real WLANs
// spend most of their life below saturation, where per-packet queueing
// delay — not just aggregate throughput — is the metric that matters.
// This package describes the offered load of one station as a small,
// JSON-encodable value shared by the event-driven engine (eventsim), the
// slotted engine (slotsim) and the scenario subsystem:
//
//   - Saturated: the paper's model, an infinite backlog.
//   - Poisson: memoryless arrivals at a fixed mean rate — the classic
//     unsaturated reference model.
//   - OnOff: an interrupted Poisson process alternating exponential On
//     (arrivals at Rate) and Off (silence) phases — bursty sources whose
//     instantaneous load far exceeds their mean.
//
// Specs are pure descriptions; the engines own the RNG streams that
// realise them, so a spec can be shared between replications.
package traffic

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Kind enumerates the supported arrival processes.
type Kind uint8

const (
	// Saturated is an infinite backlog: a fresh packet is available the
	// instant the previous one is delivered. The zero value, so engines
	// default to the paper's regime.
	Saturated Kind = iota
	// Poisson delivers packets with exponential inter-arrival gaps of
	// mean 1/Rate.
	Poisson
	// OnOff is an interrupted Poisson process: exponential On phases
	// (mean OnMean) with Poisson(Rate) arrivals alternate with silent
	// exponential Off phases (mean OffMean).
	OnOff
)

// String names the kind as it appears in scenario JSON.
func (k Kind) String() string {
	switch k {
	case Saturated:
		return "saturated"
	case Poisson:
		return "poisson"
	case OnOff:
		return "onoff"
	default:
		return fmt.Sprintf("traffic.Kind(%d)", k)
	}
}

// KindFromString parses a scenario-JSON model name.
func KindFromString(s string) (Kind, error) {
	switch s {
	case "", "saturated":
		return Saturated, nil
	case "poisson":
		return Poisson, nil
	case "onoff":
		return OnOff, nil
	default:
		return 0, fmt.Errorf("traffic: unknown arrival model %q (want saturated, poisson or onoff)", s)
	}
}

// Bounds keeping hostile specs from degenerating into denial-of-service
// configurations: a fuzzing or user-supplied rate must not be able to
// schedule events faster than the engine can retire them, and queue caps
// must not pre-allocate unbounded memory.
const (
	// MaxRate is the largest accepted mean arrival rate, packets/second.
	// One arrival per 100 ns is already far beyond any 802.11 airtime.
	MaxRate = 1e7
	// MinRate is the smallest accepted rate: one packet per ~11.6 days.
	// Tiny positive rates must be bounded too — the inter-arrival
	// computation Exp()/rate would overflow float64 for subnormal rates
	// and the overflow clamp would invert "almost never" into a 1 ns
	// flood.
	MinRate = 1e-6
	// MaxQueueCap bounds the per-station queue capacity.
	MaxQueueCap = 1 << 20
	// DefaultQueueCap is the backlog bound applied when a spec leaves
	// QueueCap at 0. A 65 536-packet backlog is already minutes of
	// queueing delay — far beyond any meaningful latency measurement —
	// while keeping a validated-but-overloaded source from growing an
	// unbounded timestamp queue (8 B/packet) until OOM.
	DefaultQueueCap = 1 << 16
	// MinPhaseMean bounds OnOff phase lengths from below: shorter mean
	// phases schedule phase-flip events faster than any frame exchange,
	// turning a validated spec into an event-flood denial of service.
	MinPhaseMean = sim.Millisecond
	// MaxPhaseMean keeps phase draws well inside duration arithmetic.
	MaxPhaseMean = 24 * 3600 * sim.Second
)

// Spec describes one station's packet arrival process.
type Spec struct {
	// Kind selects the process; the zero value is Saturated.
	Kind Kind
	// Rate is the mean packet arrival rate in packets/second while the
	// source is emitting (always, for Poisson; during On phases, for
	// OnOff). Ignored by Saturated.
	Rate float64
	// OnMean and OffMean are the mean exponential phase durations of the
	// OnOff process. Ignored by the other kinds.
	OnMean, OffMean sim.Duration
	// QueueCap bounds the station queue in packets; arrivals beyond it
	// are counted as drops. 0 applies DefaultQueueCap — the backlog is
	// always finite. Ignored by Saturated (whose backlog is conceptually
	// infinite but occupies no memory).
	QueueCap int
}

// EffectiveQueueCap returns the backlog bound the engines enforce:
// QueueCap when set, DefaultQueueCap otherwise.
func (s Spec) EffectiveQueueCap() int {
	if s.QueueCap > 0 {
		return s.QueueCap
	}
	return DefaultQueueCap
}

// Unsaturated reports whether the spec describes a finite-load source.
func (s Spec) Unsaturated() bool { return s.Kind != Saturated }

// Validate reports the first nonsensical parameter, if any.
func (s Spec) Validate() error {
	switch s.Kind {
	case Saturated:
		return nil
	case Poisson, OnOff:
	default:
		return fmt.Errorf("traffic: unknown kind %d", s.Kind)
	}
	if math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) || s.Rate <= 0 {
		return fmt.Errorf("traffic: %s rate %v must be a positive finite packets/second", s.Kind, s.Rate)
	}
	if s.Rate > MaxRate || s.Rate < MinRate {
		return fmt.Errorf("traffic: %s rate %v outside [%v, %v] packets/second", s.Kind, s.Rate, float64(MinRate), float64(MaxRate))
	}
	if s.QueueCap < 0 || s.QueueCap > MaxQueueCap {
		return fmt.Errorf("traffic: queue capacity %d outside [0, %d]", s.QueueCap, MaxQueueCap)
	}
	if s.Kind == OnOff {
		if s.OnMean < MinPhaseMean || s.OnMean > MaxPhaseMean ||
			s.OffMean < MinPhaseMean || s.OffMean > MaxPhaseMean {
			return fmt.Errorf("traffic: onoff phase means (on %v, off %v) outside [%v, %v]",
				s.OnMean, s.OffMean, MinPhaseMean, MaxPhaseMean)
		}
	}
	return nil
}

// NextInterArrival draws the gap to the next packet while the source is
// emitting: Exponential(Rate), clamped to at least one nanosecond so a
// pathological draw cannot stall simulated time.
func (s Spec) NextInterArrival(rng *sim.RNG) sim.Duration {
	return expDuration(rng, s.Rate)
}

// NextPhase draws the duration of the phase the OnOff source just
// entered (on == true for an On phase).
func (s Spec) NextPhase(on bool, rng *sim.RNG) sim.Duration {
	mean := s.OffMean
	if on {
		mean = s.OnMean
	}
	return expDuration(rng, 1/mean.Seconds())
}

// expDuration draws Exponential(rate) as a simulated duration clamped to
// [1 ns, ~31.7 years]: the lower clamp keeps simulated time advancing,
// the upper keeps the int64 conversion exact even for the smallest
// validated rates (where float overflow would otherwise wrap negative
// and masquerade as the 1 ns floor).
func expDuration(rng *sim.RNG, rate float64) sim.Duration {
	secs := rng.Exp() / rate
	if !(secs < 1e9) { // also catches NaN/Inf
		secs = 1e9
	}
	d := sim.Duration(secs * float64(sim.Second))
	if d < sim.Nanosecond {
		d = sim.Nanosecond
	}
	return d
}
