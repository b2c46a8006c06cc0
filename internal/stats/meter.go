package stats

import (
	"fmt"

	"repro/internal/sim"
)

// ThroughputMeter counts delivered payload bits and converts them to
// bits/second over arbitrary intervals. The zero value is a meter whose
// window starts at time zero. The AP owns one, closed every
// UPDATE_PERIOD for the controller.
type ThroughputMeter struct {
	bits      int64
	lastReset sim.Time
}

// Account adds bits delivered payload bits.
func (m *ThroughputMeter) Account(bits int) { m.bits += int64(bits) }

// Rate returns the average bits/second since the last window reset.
func (m *ThroughputMeter) Rate(now sim.Time) float64 {
	elapsed := now.Sub(m.lastReset).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(m.bits) / elapsed
}

// ResetWindow zeroes the counter and starts a new measurement window —
// the per-UPDATE_PERIOD measurement of Algorithms 1 and 2.
func (m *ThroughputMeter) ResetWindow(now sim.Time) {
	m.bits = 0
	m.lastReset = now
}

// Reset empties the series in place, keeping the sample storage for
// reuse.
func (ts *TimeSeries) Reset(name string) {
	ts.Name = name
	ts.Times = ts.Times[:0]
	ts.Values = ts.Values[:0]
}

// Clone returns a deep copy with storage independent of the receiver —
// what simulator arenas hand out so a Result survives the arena's next
// run. An empty series clones to nil storage, indistinguishable from
// the zero value.
func (ts *TimeSeries) Clone() TimeSeries {
	out := TimeSeries{Name: ts.Name, MaxSize: ts.MaxSize}
	if len(ts.Times) > 0 {
		out.Times = append([]sim.Time(nil), ts.Times...)
		out.Values = append([]float64(nil), ts.Values...)
	}
	return out
}

// TimeSeries records (time, value) samples, e.g. throughput or the control
// variable over a run (Figs. 8–11).
type TimeSeries struct {
	Name    string
	Times   []sim.Time
	Values  []float64
	MaxSize int // 0 means unbounded
}

// Append adds a sample. When MaxSize is positive and reached, the oldest
// half of the series is compacted by dropping every other sample, which
// preserves the envelope of long runs at bounded memory.
func (ts *TimeSeries) Append(t sim.Time, v float64) {
	if ts.MaxSize > 0 && len(ts.Times) >= ts.MaxSize {
		keep := 0
		for i := 0; i < len(ts.Times); i += 2 {
			ts.Times[keep] = ts.Times[i]
			ts.Values[keep] = ts.Values[i]
			keep++
		}
		ts.Times = ts.Times[:keep]
		ts.Values = ts.Values[:keep]
	}
	ts.Times = append(ts.Times, t)
	ts.Values = append(ts.Values, v)
}

// Len returns the number of samples.
func (ts *TimeSeries) Len() int { return len(ts.Times) }

// Last returns the most recent sample, or (0, NaN-free zero) when empty.
func (ts *TimeSeries) Last() (sim.Time, float64, bool) {
	if len(ts.Times) == 0 {
		return 0, 0, false
	}
	i := len(ts.Times) - 1
	return ts.Times[i], ts.Values[i], true
}

// MeanAfter returns the mean of samples with t ≥ from — used to measure
// converged throughput while excluding the adaptation transient.
func (ts *TimeSeries) MeanAfter(from sim.Time) float64 {
	var w Welford
	for i, t := range ts.Times {
		if t >= from {
			w.Add(ts.Values[i])
		}
	}
	return w.Mean()
}

// IdleSlotTracker measures the average number of idle backoff slots
// between consecutive transmissions as seen by an observer of the medium —
// the statistic IdleSense regulates and Table III reports.
//
// It follows the 802.11 sensing convention: an idle gap shorter than DIFS
// (e.g. the SIFS before an ACK) is part of the ongoing frame exchange, not
// a contention opportunity, so such gaps merge into one busy period; for
// longer gaps the first DIFS is mandatory overhead and only the remainder
// counts as idle slots.
type IdleSlotTracker struct {
	slot sim.Duration
	difs sim.Duration

	idleSince   sim.Time
	idleOpen    bool
	idleSlots   float64
	busyPeriods int64
}

// NewIdleSlotTracker returns a tracker for the given slot and DIFS
// durations.
func NewIdleSlotTracker(slot, difs sim.Duration) IdleSlotTracker {
	if slot <= 0 {
		panic(fmt.Sprintf("stats: non-positive slot %v", slot))
	}
	if difs < 0 {
		panic(fmt.Sprintf("stats: negative DIFS %v", difs))
	}
	return IdleSlotTracker{slot: slot, difs: difs}
}

// MediumIdle records that the medium became idle at t.
func (k *IdleSlotTracker) MediumIdle(t sim.Time) {
	if !k.idleOpen {
		k.idleOpen = true
		k.idleSince = t
	}
}

// MediumBusy records that a transmission started at t. Gaps of at least
// DIFS close the previous busy period, crediting (gap − DIFS)/slot idle
// slots; shorter gaps merge into the ongoing exchange.
func (k *IdleSlotTracker) MediumBusy(t sim.Time) {
	if k.idleOpen {
		gap := t.Sub(k.idleSince)
		k.idleOpen = false
		if gap < k.difs {
			return // same frame exchange (e.g. SIFS before an ACK)
		}
		k.idleSlots += float64(gap-k.difs) / float64(k.slot)
	}
	k.busyPeriods++
}

// Average returns mean idle slots per transmission, 0 before any busy
// period has completed.
func (k *IdleSlotTracker) Average() float64 {
	if k.busyPeriods == 0 {
		return 0
	}
	return k.idleSlots / float64(k.busyPeriods)
}
