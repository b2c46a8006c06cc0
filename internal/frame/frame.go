// Package frame defines the over-the-air frames exchanged in the
// simulated WLAN.
//
// Frames are typed values, never bytes: the simulator hands each one by
// pointer to its capture hook, and a consumer switches on the concrete
// type. The Control block carries the fields of Algorithms 1 and 2:
// wTOP-CSMA's `p` and TORA-CSMA's `(p0, j)` ride inside every ACK (and
// beacon), exactly as the paper's AP "transmits p in the ACK packet".
package frame

import "fmt"

// Type discriminates the frame kinds.
type Type uint8

// Frame type codes.
const (
	TypeData   Type = 1
	TypeACK    Type = 2
	TypeBeacon Type = 3
	TypeRTS    Type = 4
	TypeCTS    Type = 5
)

// String returns the conventional name of the frame type.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "Data"
	case TypeACK:
		return "ACK"
	case TypeBeacon:
		return "Beacon"
	case TypeRTS:
		return "RTS"
	case TypeCTS:
		return "CTS"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Address identifies a station. The AP uses AddressAP.
type Address uint16

// AddressAP is the access point's well-known address.
const AddressAP Address = 0xFFFF

// String renders station addresses as "sta<n>" and the AP as "ap".
func (a Address) String() string {
	if a == AddressAP {
		return "ap"
	}
	return fmt.Sprintf("sta%d", uint16(a))
}

// Layer is the common view over every frame kind: a type tag. Switch on
// the concrete type (*Data, *ACK, *Beacon, *RTS, *CTS) for the fields.
type Layer interface {
	// FrameType returns the frame's type tag.
	FrameType() Type
}

// Data is an uplink data frame from a station to the AP.
type Data struct {
	Source      Address
	Destination Address
	Sequence    uint16
	// Retry counts how many transmission attempts this frame has made
	// (0 for the first attempt), mirroring the 802.11 retry bit but kept
	// as a counter for simulator statistics. It saturates at 255: a
	// frame retried more often than that keeps reading 255, never 0.
	Retry uint8
	// Bits is the payload size in bits. Simulated payloads are sized,
	// not materialised: an 8000-bit payload is carried as a length.
	Bits int
}

// FrameType implements Layer.
func (d *Data) FrameType() Type { return TypeData }

// Control carries the AP's broadcast tuning state. It is embedded in
// every ACK (and Beacon) so that stations track the controller without a
// dedicated management exchange, as in Algorithms 1 and 2.
type Control struct {
	// Scheme tags which controller produced the values.
	Scheme ControlScheme
	// P is the wTOP-CSMA control variable (attempt probability before
	// weight mapping).
	P float64
	// P0 is the TORA-CSMA reset probability.
	P0 float64
	// Stage is TORA-CSMA's reset stage j.
	Stage uint8
}

// ControlScheme enumerates the controllers that can own the broadcast.
type ControlScheme uint8

// Control scheme codes.
const (
	ControlNone ControlScheme = 0
	ControlWTOP ControlScheme = 1
	ControlTORA ControlScheme = 2
)

// String names the scheme.
func (s ControlScheme) String() string {
	switch s {
	case ControlNone:
		return "none"
	case ControlWTOP:
		return "wTOP-CSMA"
	case ControlTORA:
		return "TORA-CSMA"
	default:
		return fmt.Sprintf("ControlScheme(%d)", uint8(s))
	}
}

// ACK is the AP's acknowledgement of a data frame. Per the paper, the
// ACK also broadcasts the controller state.
type ACK struct {
	// Receiver is the station whose data frame is being acknowledged.
	Receiver Address
	// Sequence echoes the acknowledged frame's sequence number.
	Sequence uint16
	// Control is the piggybacked tuning broadcast.
	Control Control
}

// FrameType implements Layer.
func (a *ACK) FrameType() Type { return TypeACK }

// Beacon is a periodic AP broadcast carrying the same control block; the
// paper notes wTOP-CSMA "can be modified to use beacon frames to send the
// parameters" so stations need not decode every ACK.
type Beacon struct {
	Sequence uint16
	Control  Control
}

// FrameType implements Layer.
func (b *Beacon) FrameType() Type { return TypeBeacon }

// RTS is a station's request-to-send, announcing the intended medium
// reservation in microseconds (the 802.11 Duration/ID field).
type RTS struct {
	Source   Address
	Duration uint16
}

// FrameType implements Layer.
func (r *RTS) FrameType() Type { return TypeRTS }

// CTS is the AP's clear-to-send. Every station that decodes it arms its
// NAV for Duration microseconds — the virtual carrier sense that silences
// hidden nodes.
type CTS struct {
	Receiver Address
	Duration uint16
}

// FrameType implements Layer.
func (c *CTS) FrameType() Type { return TypeCTS }
