// Package model implements the analytic substrate of the paper: the
// p-persistent throughput function of Eqs. (2)–(3), its quasi-concavity
// witness f(p,W) from Theorem 2, Bianchi's DCF fixed point, and the
// RandomReset attempt-probability fixed point of Eqs. (9)–(11) used in
// Theorem 3. The simulators and experiment harness consume these for
// cross-validation and for the analytic figures (Figs. 2, 12, 13).
package model

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// PHY captures the timing and framing parameters of Table I. All lengths
// are in bits, all durations in simulated time, the rate in bits/second.
type PHY struct {
	// BitRate is the common data transmission rate R (54 Mbps).
	BitRate float64
	// ControlRate is the rate used for ACK frames. 802.11a/g transmits
	// control responses at a basic rate (6 Mbps); the paper's RTS/CTS
	// discussion highlights exactly this control/data rate gap.
	ControlRate float64
	// Payload is the expected packet payload EP in bits (8000).
	Payload int
	// Header is the MAC header length LH in bits (272 for the classic
	// 34-byte 802.11 MAC header + FCS).
	Header int
	// ACKLength is the ACK frame body length LACK in bits (112).
	ACKLength int
	// Preamble is the fixed PHY preamble + PLCP header duration prefixed
	// to every frame (20 µs for OFDM).
	Preamble sim.Duration
	// Slot is the idle slot duration σ (9 µs for OFDM/20 MHz).
	Slot sim.Duration
	// SIFS is the short inter-frame space (16 µs).
	SIFS sim.Duration
	// DIFS is the distributed inter-frame space (34 µs).
	DIFS sim.Duration
}

// PaperPHY returns the parameters of Table I: 54 Mbps OFDM PHY on a 20 MHz
// channel, 8000-bit payloads, 9 µs slots, SIFS 16 µs, DIFS 34 µs, plus the
// standard OFDM PHY overheads (20 µs preamble, 6 Mbps ACKs) that the
// paper's ns-3 stack applies implicitly.
func PaperPHY() PHY {
	return PHY{
		BitRate:     54e6,
		ControlRate: 6e6,
		Payload:     8000,
		Header:      272,
		ACKLength:   112,
		Preamble:    20 * sim.Microsecond,
		Slot:        9 * sim.Microsecond,
		SIFS:        16 * sim.Microsecond,
		DIFS:        34 * sim.Microsecond,
	}
}

// PHY80211b returns the classic 802.11b DSSS parameters of Bianchi's
// 2000 analysis: 1 Mbps channel, 8184-bit payloads, 272-bit MAC header,
// 112-bit ACK, 192 µs PLCP preamble, 20/10/50 µs slot/SIFS/DIFS. Useful
// for cross-validating the fixed-point machinery against the published
// saturation-throughput numbers.
func PHY80211b() PHY {
	return PHY{
		BitRate:     1e6,
		ControlRate: 1e6,
		Payload:     8184,
		Header:      272,
		ACKLength:   112,
		Preamble:    192 * sim.Microsecond,
		Slot:        20 * sim.Microsecond,
		SIFS:        10 * sim.Microsecond,
		DIFS:        50 * sim.Microsecond,
	}
}

// Validate reports the first nonsensical parameter, if any.
func (p PHY) Validate() error {
	switch {
	case p.BitRate <= 0:
		return fmt.Errorf("model: BitRate %v must be positive", p.BitRate)
	case p.ControlRate <= 0:
		return fmt.Errorf("model: ControlRate %v must be positive", p.ControlRate)
	case p.Preamble < 0:
		return fmt.Errorf("model: Preamble %v must be non-negative", p.Preamble)
	case p.Payload <= 0:
		return fmt.Errorf("model: Payload %d must be positive", p.Payload)
	case p.Header < 0:
		return fmt.Errorf("model: Header %d must be non-negative", p.Header)
	case p.ACKLength <= 0:
		return fmt.Errorf("model: ACKLength %d must be positive", p.ACKLength)
	case p.Slot <= 0:
		return fmt.Errorf("model: Slot %v must be positive", p.Slot)
	case p.SIFS <= 0:
		return fmt.Errorf("model: SIFS %v must be positive", p.SIFS)
	case p.DIFS <= 0:
		return fmt.Errorf("model: DIFS %v must be positive", p.DIFS)
	case p.DIFS <= p.SIFS:
		// The AP answers SIFS after a frame, before any station's DIFS
		// can end; eventsim relies on it to skip the SIFS gap.
		return fmt.Errorf("model: DIFS %v must exceed SIFS %v", p.DIFS, p.SIFS)
	}
	return nil
}

// TxTime returns the airtime of a frame of the given length in bits at
// rate bits/second, including the PHY preamble.
func (p PHY) TxTime(bits int, rate float64) sim.Duration {
	return p.Preamble + sim.Duration(math.Round(float64(bits)/rate*1e9))
}

// DataTxTime returns the airtime of a data frame:
// preamble + (LH + EP)/R.
func (p PHY) DataTxTime() sim.Duration { return p.TxTime(p.Header+p.Payload, p.BitRate) }

// ACKTxTime returns the airtime of an ACK frame at the control rate:
// preamble + LACK/ControlRate.
func (p PHY) ACKTxTime() sim.Duration { return p.TxTime(p.ACKLength, p.ControlRate) }

// Ts returns the duration of a successful transmission slot:
// (LH+EP)/R + SIFS + LACK/R + DIFS (Section III-A).
func (p PHY) Ts() sim.Duration {
	return p.DataTxTime() + p.SIFS + p.ACKTxTime() + p.DIFS
}

// Tc returns the duration of a collided transmission slot:
// (LH+EP)/R + DIFS (Section III-A).
func (p PHY) Tc() sim.Duration {
	return p.DataTxTime() + p.DIFS
}

// TsSlots returns T*_s = Ts/σ, the success duration in slot units.
func (p PHY) TsSlots() float64 { return float64(p.Ts()) / float64(p.Slot) }

// TcSlots returns T*_c = Tc/σ, the collision duration in slot units.
func (p PHY) TcSlots() float64 { return float64(p.Tc()) / float64(p.Slot) }

// RTS/CTS frame body lengths in bits (20-byte RTS, 14-byte CTS).
const (
	RTSLength = 160
	CTSLength = 112
)

// RTSTxTime returns the airtime of an RTS frame at the control rate.
func (p PHY) RTSTxTime() sim.Duration { return p.TxTime(RTSLength, p.ControlRate) }

// CTSTxTime returns the airtime of a CTS frame at the control rate.
func (p PHY) CTSTxTime() sim.Duration { return p.TxTime(CTSLength, p.ControlRate) }

// PIFS is the PCF inter-frame space, SIFS + one slot. It is shorter than
// DIFS, so AP-priority frames (beacons) seize the medium ahead of any
// station's backoff — which is how beacons keep flowing even when the
// contention window has collapsed into wall-to-wall collisions.
func (p PHY) PIFS() sim.Duration { return p.SIFS + p.Slot }

// ACKTimeout is how long a transmitter waits after its data frame ends
// before declaring the transmission failed. The paper (Section II) uses
// exactly DIFS: an ACK always starts SIFS < DIFS after the data frame, so
// by DIFS after the data end its absence is conclusive. This choice makes
// a synchronized collision occupy the medium for Tc = (LH+EP)/R + DIFS,
// matching Eq. (2)'s slot durations.
func (p PHY) ACKTimeout() sim.Duration { return p.DIFS }
