// Package eventsim is the ns-3 replacement: a continuous-time,
// event-driven simulator of saturated IEEE 802.11-style CSMA/CA uplink
// traffic with carrier sensing, hidden nodes, ACKs and an AP-side
// controller hook.
//
// Unlike Bianchi-style slotted models (package slotsim), nodes here keep
// their own desynchronised view of the medium: a station freezes its
// backoff only while a transmission it can *sense* is in the air, so two
// mutually hidden stations happily count down over each other's
// transmissions and collide at the AP — the exact phenomenon the paper's
// hidden-node evaluation (Figs. 4–7, Table III) exercises.
//
// The collision model is the paper's (Section II): a data transmission is
// successful iff no other station's transmission overlaps it in time at
// the AP, and the AP cannot receive while it transmits an ACK.
package eventsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Config assembles a simulation run.
type Config struct {
	// PHY supplies timing and framing (zero value: model.PaperPHY()).
	PHY model.PHY
	// Topology fixes station positions and connectivity. Required.
	Topology *topo.Topology
	// Policies holds one contention-resolution policy per station, in
	// station-index order. Required; length must equal Topology.N().
	Policies []mac.Policy
	// Controller, when non-nil, runs at the AP: it receives windowed
	// throughput measurements and its Control block is broadcast in
	// every ACK (and beacon).
	Controller core.Controller
	// UpdatePeriod is the controller measurement window Δ (default
	// 250 ms, the paper's simulation setting).
	UpdatePeriod sim.Duration
	// BeaconInterval, when positive, makes the AP broadcast a beacon
	// frame carrying the control block every interval — the paper's
	// suggested alternative to stations decoding every ACK. Beacons use
	// PIFS priority, so they survive collision collapse, which ACKs do
	// not: without them Algorithm 1's aggressive early probes (p ≈ 0.9)
	// can deadlock a dense network with zero successes and therefore
	// zero control deliveries. When a Controller is configured and this
	// field is zero it defaults to the 802.11 beacon period (102.4 ms).
	BeaconInterval sim.Duration
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// InitialActive limits how many stations start active (0 = all);
	// dynamic-arrival scenarios (Figs. 8–11) activate the rest later.
	InitialActive int
	// RTSCTS enables the RTS/CTS exchange before every data frame. The
	// AP's CTS reaches every station (system model), so it sets a NAV
	// that silences hidden nodes for the whole exchange — collisions can
	// then only hit the short control-rate RTS frames. This is the
	// trade-off of the paper's introduction: hidden nodes eliminated,
	// but substantial fixed overhead because RTS/CTS transmit at the
	// basic rate (6 Mbps) while data runs at 54 Mbps.
	RTSCTS bool
	// FrameErrorRate applies i.i.d. loss to data frames on top of
	// collisions (footnote 1 of the paper: such errors fold into the
	// framework when independent and identically distributed). A lost
	// frame draws no ACK, so the transmitter takes the failure path.
	FrameErrorRate float64
	// Trace, when non-nil, receives every frame as it ends
	// (successfully or not) — the simulator's packet capture.
	Trace Tracer
	// Arrivals describes each station's packet arrival process, in
	// station-index order. Nil means every station is saturated (the
	// paper's regime, bit-identical to pre-Arrivals behaviour); when
	// set, the length must equal Topology.N(). Unsaturated stations
	// contend only while their queue is non-empty, and every delivered
	// packet's arrival→ACK latency feeds the Result's latency histogram.
	Arrivals []traffic.Spec
}

// withDefaults validates the configuration and fills defaults.
func (c Config) withDefaults() (Config, error) {
	if c.Topology == nil {
		return c, fmt.Errorf("eventsim: Topology is required")
	}
	if err := c.Topology.Validate(); err != nil {
		return c, err
	}
	// The event engine derives its carrier-sense rows from explicit
	// neighbour lists, so it needs the topology's adjacency materialised
	// — bounded, because the paper's AP-bounded geometry is near-complete
	// and a huge-n dense layout would otherwise allocate Θ(n²).
	if err := c.Topology.EnsureAdjacency(topo.DefaultAdjacencyBudget); err != nil {
		return c, fmt.Errorf("eventsim: %w", err)
	}
	if c.PHY == (model.PHY{}) {
		c.PHY = model.PaperPHY()
	}
	if err := c.PHY.Validate(); err != nil {
		return c, err
	}
	if len(c.Policies) != c.Topology.N() {
		return c, fmt.Errorf("eventsim: %d policies for %d stations", len(c.Policies), c.Topology.N())
	}
	for i, p := range c.Policies {
		if p == nil {
			return c, fmt.Errorf("eventsim: policy %d is nil", i)
		}
	}
	if c.UpdatePeriod == 0 {
		c.UpdatePeriod = 250 * sim.Millisecond
	}
	if c.UpdatePeriod < 0 {
		return c, fmt.Errorf("eventsim: negative UpdatePeriod %v", c.UpdatePeriod)
	}
	if c.BeaconInterval < 0 {
		return c, fmt.Errorf("eventsim: negative BeaconInterval %v", c.BeaconInterval)
	}
	if c.BeaconInterval == 0 && c.Controller != nil {
		c.BeaconInterval = 102400 * sim.Microsecond // standard 802.11 beacon period
	}
	if c.InitialActive < 0 || c.InitialActive > c.Topology.N() {
		return c, fmt.Errorf("eventsim: InitialActive %d outside [0, %d]", c.InitialActive, c.Topology.N())
	}
	if c.InitialActive == 0 {
		c.InitialActive = c.Topology.N()
	}
	if c.FrameErrorRate < 0 || c.FrameErrorRate >= 1 {
		return c, fmt.Errorf("eventsim: FrameErrorRate %v outside [0,1)", c.FrameErrorRate)
	}
	if c.Arrivals != nil {
		if len(c.Arrivals) != c.Topology.N() {
			return c, fmt.Errorf("eventsim: %d arrival specs for %d stations", len(c.Arrivals), c.Topology.N())
		}
		for i, a := range c.Arrivals {
			if err := a.Validate(); err != nil {
				return c, fmt.Errorf("eventsim: station %d: %w", i, err)
			}
		}
	}
	return c, nil
}

// Tracer observes completed frame transmissions.
type Tracer interface {
	// Frame receives a frame that just left the air (a *frame.Data,
	// *frame.ACK, *frame.Beacon, *frame.RTS or *frame.CTS), the
	// simulated completion instant, and whether it collided.
	// Implementations must not retain f across calls.
	Frame(at sim.Time, f frame.Layer, collided bool)
}
