// Package slotsim is a slot-synchronous simulator of saturated CSMA/CA in
// a *fully connected* network — the world Bianchi's renewal analysis
// lives in. Every station shares one global slot clock: a slot is idle
// (σ), a success (Ts) or a collision (Tc) depending on how many stations'
// backoff counters expire together.
//
// It exists for two reasons: cross-validating the event-driven engine
// (both must agree on connected topologies — an ablation the test suite
// enforces) and running large parameter sweeps quickly (it advances one
// busy period per step instead of simulating the air byte by byte).
// It cannot represent hidden nodes: that is eventsim's job.
package slotsim

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Config assembles a slotted run.
type Config struct {
	// PHY supplies timing (zero value: model.PaperPHY()).
	PHY model.PHY
	// Policies holds one contention policy per station. The simulator
	// reads the slice for the whole run instead of copying it, so the
	// caller must not modify it while the simulator is in use.
	Policies []mac.Policy
	// Controller optionally runs at the AP, exactly as in eventsim.
	Controller core.Controller
	// UpdatePeriod is the controller window (default 250 ms).
	UpdatePeriod sim.Duration
	// Seed drives all randomness.
	Seed int64
	// Arrivals describes each station's packet arrival process, in
	// station-index order. Nil means saturated everywhere (bit-identical
	// to pre-Arrivals behaviour). The slotted abstraction supports
	// Saturated and Poisson sources; OnOff bursts need the continuous
	// clock of eventsim and are rejected here. Arrivals land on the slot
	// grid: a packet arriving mid-slot joins contention at the next slot
	// boundary, the slotted counterpart of eventsim's continuous-time
	// admission.
	Arrivals []traffic.Spec
}

// Result summarises a slotted run.
type Result struct {
	// Duration is the simulated time consumed.
	Duration sim.Duration
	// Throughput is delivered payload bits per second.
	Throughput float64
	// PerStation is each station's delivered payload bits.
	PerStation []int64
	// Successes/Collisions count busy periods by outcome (a collision
	// period involving any number of stations counts once).
	Successes, Collisions int64
	// IdleSlots is the total count of idle slots.
	IdleSlots int64
	// IdleSlotsPerTx is the mean idle-slot run before a busy period.
	IdleSlotsPerTx float64
	// ControlSeries tracks the controller variable per window.
	ControlSeries stats.TimeSeries
	// ThroughputSeries tracks windowed throughput.
	ThroughputSeries stats.TimeSeries
	// PacketsArrived and PacketsDropped count offered packets and
	// queue-overflow losses across unsaturated stations (zero in the
	// saturated regime).
	PacketsArrived, PacketsDropped int64
}

// Simulator is the slot-synchronous engine.
type Simulator struct {
	cfg      Config
	stations []station
	// rngs holds the station generators: station i draws from
	// &rngs[i], so the 100k tier's generators are one dense 16-byte-
	// per-station allocation instead of one each.
	rngs []sim.RNG
	// sources holds the finite-load stations' arrival state in ascending
	// station order; a station's src field indexes it. Arrival admission
	// walks it alone, skipping the saturated stations that are almost
	// everyone at the 100k tier, and the saturated hot loop skips every
	// arrival check when it is empty.
	sources []source
	now     sim.Time

	windowBits  int64
	windowStart sim.Time
	nextWindow  sim.Time
	control     frame.Control

	// attackerIdx is the per-slot scratch of expired counters, hoisted
	// here so repeated Run calls stay allocation-free.
	attackerIdx []int

	// idleRun counts idle slots since the last busy period. It lives on
	// the simulator — not as a Run local — so a run advanced in
	// increments (Run(t1); Run(t2)) observes exactly the idle runs of a
	// single Run(t2) call even when an increment boundary lands mid
	// idle run; incremental stepping is what lets callers poll
	// cancellation between chunks.
	idleRun int64

	// tracker holds every backlogged station keyed by absolute backoff
	// expiry (see backoff.go): expired-counter collection and the
	// minimum-counter idle jump are bucket operations instead of O(N)
	// scans, and advancing the clock is a base bump instead of a
	// decrement of every counter.
	tracker backoffTracker

	// The per-busy-period passes never scan all N stations: each walks a
	// flat array (the SoA idiom the calendar queue's bitmap established)
	// listing exactly the stations it concerns, all fixed at New and
	// ascending. memorylessIdx holds the policies that redraw at every
	// busy-period boundary (the resume pass is free for DCF), observers
	// the MediumObserver policies (IdleSense).
	memorylessIdx []int32
	observers     []mac.MediumObserver

	// ts and tc are the PHY's success and collision busy-period
	// durations, computed once in New: Run spends one per busy period,
	// and the float maths behind TxTime is not free.
	ts, tc sim.Duration

	res Result
}

// station is the per-station hot record. Everything else a station owns
// lives in a parallel table: its policy in cfg.Policies, its generator
// in rngs, its delivered bits in res.PerStation and, for a finite-load
// station, its arrival state in sources.
type station struct {
	// expiry is the absolute slot index at which the backoff counter
	// reaches zero, valid while the station is tracked (backlogged).
	expiry int64
	// src indexes sources, or is -1 for a saturated station.
	src int32
}

// source is an unsaturated station's arrival state: the station, its
// spec, its dedicated RNG stream (sim.ArrivalStream), the (continuous)
// instant of the next arrival, and the current queue length. The station
// contends only while backlogged.
type source struct {
	station int
	arr     traffic.Spec
	rng     sim.RNG
	next    sim.Time
	qlen    int
}

// withDefaults validates the configuration and fills defaults.
func (c Config) withDefaults() (Config, error) {
	if len(c.Policies) == 0 {
		return c, fmt.Errorf("slotsim: no policies")
	}
	for i, p := range c.Policies {
		if p == nil {
			return c, fmt.Errorf("slotsim: policy %d is nil", i)
		}
	}
	if c.PHY == (model.PHY{}) {
		c.PHY = model.PaperPHY()
	}
	if err := c.PHY.Validate(); err != nil {
		return c, err
	}
	if c.UpdatePeriod == 0 {
		c.UpdatePeriod = 250 * sim.Millisecond
	}
	if c.UpdatePeriod < 0 {
		return c, fmt.Errorf("slotsim: negative UpdatePeriod")
	}
	if c.Arrivals != nil {
		if len(c.Arrivals) != len(c.Policies) {
			return c, fmt.Errorf("slotsim: %d arrival specs for %d stations", len(c.Arrivals), len(c.Policies))
		}
		for i, a := range c.Arrivals {
			if err := a.Validate(); err != nil {
				return c, fmt.Errorf("slotsim: station %d: %w", i, err)
			}
			if a.Kind == traffic.OnOff {
				return c, fmt.Errorf("slotsim: station %d: onoff arrivals need the continuous clock of eventsim", i)
			}
		}
	}
	return c, nil
}

// New validates cfg and builds a simulator.
func New(cfg Config) (*Simulator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := len(cfg.Policies)
	s := &Simulator{
		cfg:      cfg,
		stations: make([]station, n),
		rngs:     make([]sim.RNG, n),
		tracker:  newBackoffTracker(n),
		ts:       cfg.PHY.Ts(),
		tc:       cfg.PHY.Tc(),
		res:      Result{PerStation: make([]int64, n)},
	}
	// One ascending pass: draw the initial counter, set up the arrival
	// source, and register backlogged stations with the tracker.
	// Saturated stations are always backlogged. An unsaturated station
	// joins when its first packet arrives, with a fresh draw; its initial
	// draw is still consumed, because every draw is pinned.
	for i, p := range cfg.Policies {
		rng := &s.rngs[i]
		rng.Reseed(cfg.Seed, int64(i))
		counter := p.NextBackoff(rng)
		if o, ok := p.(mac.MediumObserver); ok {
			s.observers = append(s.observers, o)
		}
		if m, ok := p.(mac.Memoryless); ok && m.BackoffMemoryless() {
			s.memorylessIdx = append(s.memorylessIdx, int32(i))
		}
		s.stations[i].src = -1
		if cfg.Arrivals != nil && cfg.Arrivals[i].Unsaturated() {
			s.stations[i].src = int32(len(s.sources))
			s.sources = append(s.sources, source{station: i, arr: cfg.Arrivals[i]})
			src := &s.sources[len(s.sources)-1]
			src.rng.Reseed(cfg.Seed, sim.ArrivalStream(i))
			src.next = sim.Time(src.arr.NextInterArrival(&src.rng))
			continue
		}
		s.track(i, counter)
	}
	s.nextWindow = sim.Time(cfg.UpdatePeriod)
	if cfg.Controller != nil {
		s.control = cfg.Controller.Control()
	}
	return s, nil
}

// Run advances the simulation until at least the given simulated duration
// has elapsed and returns the results.
func (s *Simulator) Run(duration sim.Duration) *Result {
	end := sim.Time(duration)
	for s.now.Before(end) {
		if len(s.sources) > 0 {
			s.admitArrivals()
		}
		// Backlogged stations whose counters expired sit in the
		// tracker's base bucket — no per-station scan. Bucket order is
		// arbitrary, so restore the ascending order the draw paths rely
		// on.
		s.attackerIdx = s.tracker.takeExpired(s.attackerIdx[:0])
		attackers := len(s.attackerIdx)
		if attackers > 1 {
			sort.Ints(s.attackerIdx)
		}
		switch {
		case attackers == 0:
			// All backlogged counters are ≥ 1: the next minCounter slots
			// are idle by construction. Jump them at once, capped at the
			// next controller-window boundary so the windowed series
			// closes at exactly the same instants as the per-slot walk.
			jump := s.tracker.minCounter()
			//wlanvet:allow bounded: the window boundary is within one run and spec validation caps durations far below 2³¹ slots
			if boundary := int((s.nextWindow.Sub(s.now) + s.cfg.PHY.Slot - 1) / s.cfg.PHY.Slot); boundary >= 1 && boundary < jump {
				jump = boundary
			}
			// Cap at the run end too: the per-slot walk stops at the
			// first slot boundary ≥ end, and Duration must match it.
			//wlanvet:allow bounded: the run end is within one run and spec validation caps durations far below 2³¹ slots
			if endSlots := int((end.Sub(s.now) + s.cfg.PHY.Slot - 1) / s.cfg.PHY.Slot); endSlots >= 1 && endSlots < jump {
				jump = endSlots
			}
			// An arrival can make an idle station backlogged mid-run;
			// stop the jump at the first upcoming arrival's slot boundary
			// so its backoff starts on time.
			if len(s.sources) > 0 {
				if slots := s.slotsUntilArrival(); slots >= 1 && slots < jump {
					jump = slots
				}
			}
			s.res.IdleSlots += int64(jump)
			s.idleRun += int64(jump)
			s.now = s.now.Add(sim.Duration(jump) * s.cfg.PHY.Slot)
			s.tracker.advance(jump)
		case attackers == 1:
			winner := s.attackerIdx[0]
			s.observe(s.idleRun)
			s.idleRun = 0
			s.now = s.now.Add(s.ts)
			s.res.Successes++
			payload := int64(s.cfg.PHY.Payload)
			s.res.PerStation[winner] += payload
			s.windowBits += payload
			if src := s.stations[winner].src; src >= 0 {
				s.sources[src].qlen--
			}
			s.cfg.Policies[winner].OnSuccess(&s.rngs[winner])
			s.broadcast()
			s.redraw(winner)
			s.resume(s.attackerIdx)
		default:
			s.observe(s.idleRun)
			s.idleRun = 0
			s.now = s.now.Add(s.tc)
			s.res.Collisions++
			// Each station must be drawn exactly once per busy period:
			// attackers through the failure path, the rest through
			// resume. A naive "redraw then resume anything non-zero"
			// double-draws attackers whose fresh counter came up ≥ 1,
			// inflating their attempt probability from p to p+(1−p)p.
			for _, i := range s.attackerIdx {
				s.cfg.Policies[i].OnFailure(&s.rngs[i])
				s.redraw(i)
			}
			s.resume(s.attackerIdx)
		}
		s.maybeCloseWindow()
	}
	s.res.Duration = s.now.Sub(0)
	if secs := s.now.Seconds(); secs > 0 {
		total := int64(0)
		for i := range s.res.PerStation {
			total += s.res.PerStation[i]
		}
		s.res.Throughput = float64(total) / secs
	}
	busy := s.res.Successes + s.res.Collisions
	if busy > 0 {
		s.res.IdleSlotsPerTx = float64(s.res.IdleSlots) / float64(busy)
	}
	return &s.res
}

// track registers station i's freshly drawn counter with the tracker.
func (s *Simulator) track(i, counter int) {
	s.stations[i].expiry = s.tracker.base + int64(counter)
	s.tracker.insert(i, counter)
}

// untrack removes station i from the tracker.
func (s *Simulator) untrack(i int) {
	s.tracker.remove(i, s.stations[i].expiry-s.tracker.base)
}

// backlogged reports whether station i has a frame to contend for.
func (s *Simulator) backlogged(i int) bool {
	src := s.stations[i].src
	return src < 0 || s.sources[src].qlen > 0
}

// observe feeds medium-observing policies (IdleSense) the idle run that
// preceded the busy period just starting. The pass walks only the
// observing stations (ascending, the same call order as the full scan it
// replaces) and costs nothing when no policy observes the medium.
func (s *Simulator) observe(idleRun int64) {
	for _, o := range s.observers {
		o.ObserveTransmission(float64(idleRun))
	}
}

// redraw draws a fresh backoff for station i after an attempt (i has
// been taken out of the tracker with the expired bucket) and re-tracks
// it while it remains backlogged. The draw is consumed regardless — the
// pre-tracker code drew unconditionally, and every draw is pinned.
func (s *Simulator) redraw(i int) {
	c := s.cfg.Policies[i].NextBackoff(&s.rngs[i])
	if s.backlogged(i) {
		s.track(i, c)
	}
}

// resume applies post-busy-period counter semantics to the stations that
// did not attempt in the closing busy period: memoryless policies redraw
// (and move buckets), window policies keep their frozen residual — and
// their tracker position — untouched, making this pass free for DCF.
// attackers lists the stations that transmitted (already redrawn by
// their outcome paths), sorted ascending.
func (s *Simulator) resume(attackers []int) {
	k := 0
	for _, i32 := range s.memorylessIdx {
		i := int(i32)
		for k < len(attackers) && attackers[k] < i {
			k++
		}
		if k < len(attackers) && attackers[k] == i {
			k++
			continue
		}
		if !s.backlogged(i) {
			continue // no frame, no counter to maintain
		}
		s.untrack(i)
		s.track(i, s.cfg.Policies[i].NextBackoff(&s.rngs[i]))
	}
}

// admitArrivals moves every arrival with timestamp ≤ now into its
// station's queue, drawing the counter when the station becomes
// backlogged. Drops are counted against a full queue. Only the
// unsaturated stations are visited (ascending — the admission order the
// full scan produced), so a mostly saturated large-n population pays
// nothing here.
func (s *Simulator) admitArrivals() {
	for k := range s.sources {
		src := &s.sources[k]
		for !src.next.After(s.now) {
			s.res.PacketsArrived++
			if src.qlen >= src.arr.EffectiveQueueCap() {
				s.res.PacketsDropped++
			} else {
				src.qlen++
				if src.qlen == 1 {
					// A fresh head-of-line frame draws a fresh backoff
					// from the policy's current state and (re)joins the
					// tracker.
					i := src.station
					s.track(i, s.cfg.Policies[i].NextBackoff(&s.rngs[i]))
				}
			}
			src.next = src.next.Add(src.arr.NextInterArrival(&src.rng))
		}
	}
}

// slotsUntilArrival returns the number of whole slots from now until the
// earliest pending arrival among unsaturated stations (minimum 1).
func (s *Simulator) slotsUntilArrival() int {
	earliest := sim.Time(int64(^uint64(0) >> 1))
	found := false
	for k := range s.sources {
		if next := s.sources[k].next; next.Before(earliest) {
			earliest = next
			found = true
		}
	}
	if !found {
		return 0
	}
	// Compare in int64 and clamp on conversion: a low-rate arrival can
	// sit billions of slots out, the delta magnitude that wrapped
	// through int in the PR 7 minCounter bug. Callers cap the jump at
	// window and run-end boundaries anyway.
	d := int64((earliest.Sub(s.now) + s.cfg.PHY.Slot - 1) / s.cfg.PHY.Slot)
	const maxInt = int(^uint(0) >> 1)
	if d > int64(maxInt) {
		d = int64(maxInt)
	}
	//wlanvet:allow guarded: d ≤ maxInt after the clamp above
	slots := int(d)
	if slots < 1 {
		slots = 1
	}
	return slots
}

// broadcast delivers the AP control block to every station.
func (s *Simulator) broadcast() {
	if s.cfg.Controller == nil {
		return
	}
	for _, p := range s.cfg.Policies {
		p.OnControl(s.control)
	}
}

// maybeCloseWindow runs the controller when the UPDATE_PERIOD boundary
// has been crossed.
func (s *Simulator) maybeCloseWindow() {
	if s.now.Before(s.nextWindow) {
		return
	}
	elapsed := s.now.Sub(s.windowStart).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(s.windowBits) / elapsed
	}
	s.res.ThroughputSeries.Append(s.now, rate)
	if s.cfg.Controller != nil {
		s.cfg.Controller.OnWindowEnd(rate)
		s.control = s.cfg.Controller.Control()
		v := s.control.P
		if s.control.Scheme == frame.ControlTORA {
			v = s.control.P0
		}
		s.res.ControlSeries.Append(s.now, v)
		// Deliver the fresh control block immediately — the slotted
		// abstraction of the AP's PIFS-priority beacon (eventsim models
		// the beacon airtime explicitly). Without this, a collision
		// collapse leaves no ACKs to carry the recovery values.
		s.broadcast()
	}
	s.windowBits = 0
	s.windowStart = s.now
	s.nextWindow = s.now.Add(s.cfg.UpdatePeriod)
}
