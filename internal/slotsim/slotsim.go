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
	// Policies holds one contention policy per station.
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

// ThroughputMbps returns the run throughput in Mbit/s.
func (r *Result) ThroughputMbps() float64 { return r.Throughput / 1e6 }

// Simulator is the slot-synchronous engine.
type Simulator struct {
	cfg      Config
	stations []slotStation
	now      sim.Time

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

	// unsat is true when any station has a finite-load source; the
	// saturated hot loop skips every arrival check when false.
	unsat bool

	// tracker holds every backlogged station keyed by absolute backoff
	// expiry (see backoff.go): expired-counter collection and the
	// minimum-counter idle jump are bucket operations instead of O(N)
	// scans, and advancing the clock is a base bump instead of a
	// decrement of every counter.
	tracker backoffTracker

	// The per-busy-period and per-iteration passes never scan all N
	// stations: each pass walks a flat index array (the SoA idiom the
	// calendar queue's bitmap established) listing exactly the stations
	// it concerns, all fixed at init and ascending. memorylessIdx holds
	// the policies that redraw at every busy-period boundary (the resume
	// pass is free for DCF), observerIdx the MediumObserver policies
	// (IdleSense), and unsatIdx the finite-load sources (arrival
	// admission skips saturated stations, which at the 100k tier is
	// almost everyone).
	memorylessIdx []int32
	observerIdx   []int32
	unsatIdx      []int32

	res Result
}

type slotStation struct {
	policy mac.Policy
	// observer and memoryless cache the policy's optional-interface
	// shape (fixed per run).
	observer   mac.MediumObserver
	memoryless bool
	rng        *sim.RNG
	counter    int
	// expiry is the absolute slot index at which counter reaches zero,
	// valid while the station is tracked (backlogged).
	expiry int64
	bits   int64

	// Unsaturated-source state: the arrival spec, its dedicated RNG
	// stream (sim.ArrivalStream), the (continuous) instant of the next
	// arrival, and the current queue length. A station contends only
	// while backlogged.
	arr    traffic.Spec
	arrRNG *sim.RNG
	next   sim.Time
	qlen   int
}

// backlogged reports whether the station has a frame to contend for.
func (st *slotStation) backlogged() bool {
	return !st.arr.Unsaturated() || st.qlen > 0
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
	s := &Simulator{}
	s.init(cfg)
	return s, nil
}

// Reset reinitialises the simulator in place for a fresh run of cfg,
// reusing the warmed arenas — station storage, station RNGs, result
// slices and scratch buffers — so a pooled simulator replays runs
// without per-run allocation. Bit-identical to a fresh New(cfg);
// TestResetMatchesNew pins it. Reset reuses the Result's storage, so a
// *Result returned by an earlier Run is invalidated: callers that keep
// results across runs must copy what they need first.
func (s *Simulator) Reset(cfg Config) error {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	s.init(cfg)
	return nil
}

// init builds run state for a validated cfg on top of s's arenas. The
// wholesale struct assignment returns every non-arena field to its zero
// value; arenas are carried explicitly.
func (s *Simulator) init(cfg Config) {
	stations := s.stations
	per := s.res.PerStation
	tracker := s.tracker
	tracker.reset(len(cfg.Policies))
	memIdx := s.memorylessIdx[:0]
	obsIdx := s.observerIdx[:0]
	unsatIdx := s.unsatIdx[:0]
	// Series storage is deliberately NOT reused: Result marshals nil and
	// empty slices differently, and a reused-but-empty series would make
	// a Reset run's encoding observably differ from a fresh New run. The
	// few per-window appends are noise next to the RNG/station arenas.
	*s = Simulator{cfg: cfg, attackerIdx: s.attackerIdx[:0], tracker: tracker}
	n := len(cfg.Policies)
	if cap(stations) < n {
		stations = make([]slotStation, n)
	} else {
		stations = stations[:n]
	}
	for i := range stations {
		st := &stations[i]
		rng, arrRNG := st.rng, st.arrRNG
		*st = slotStation{policy: cfg.Policies[i], arrRNG: arrRNG}
		st.observer, _ = st.policy.(mac.MediumObserver)
		if m, ok := st.policy.(mac.Memoryless); ok {
			st.memoryless = m.BackoffMemoryless()
		}
		if st.observer != nil {
			obsIdx = append(obsIdx, int32(i))
		}
		if st.memoryless {
			memIdx = append(memIdx, int32(i))
		}
		st.rng = sim.Reuse(rng, cfg.Seed, int64(i))
		st.counter = st.policy.NextBackoff(st.rng)
	}
	s.stations = stations
	s.memorylessIdx = memIdx
	s.observerIdx = obsIdx
	if cfg.Arrivals != nil {
		for i := range s.stations {
			st := &s.stations[i]
			st.arr = cfg.Arrivals[i]
			if st.arr.Unsaturated() {
				s.unsat = true
				st.arrRNG = sim.Reuse(st.arrRNG, cfg.Seed, sim.ArrivalStream(i))
				st.next = sim.Time(st.arr.NextInterArrival(st.arrRNG))
				unsatIdx = append(unsatIdx, int32(i))
			}
		}
	}
	s.unsatIdx = unsatIdx
	if cap(per) < n {
		per = make([]int64, n)
	} else {
		per = per[:n]
		for i := range per {
			per[i] = 0
		}
	}
	s.res.PerStation = per
	// Register every backlogged station's initial counter with the
	// tracker (saturated stations always; unsaturated ones join when
	// their first packet arrives).
	for i := range s.stations {
		if s.stations[i].backlogged() {
			s.track(i, s.stations[i].counter)
		}
	}
	s.nextWindow = sim.Time(cfg.UpdatePeriod)
	if cfg.Controller != nil {
		s.control = cfg.Controller.Control()
	}
}

// Run advances the simulation until at least the given simulated duration
// has elapsed and returns the results.
func (s *Simulator) Run(duration sim.Duration) *Result {
	end := sim.Time(duration)
	for s.now.Before(end) {
		if s.unsat {
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
			if s.unsat {
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
			st := &s.stations[winner]
			s.observe(s.idleRun)
			s.idleRun = 0
			s.now = s.now.Add(s.cfg.PHY.Ts())
			s.res.Successes++
			payload := int64(s.cfg.PHY.Payload)
			st.bits += payload
			s.res.PerStation[winner] += payload
			s.windowBits += payload
			if st.arr.Unsaturated() {
				st.qlen--
			}
			st.policy.OnSuccess(st.rng)
			s.broadcast()
			s.redraw(winner)
			s.resume(s.attackerIdx)
		default:
			s.observe(s.idleRun)
			s.idleRun = 0
			s.now = s.now.Add(s.cfg.PHY.Tc())
			s.res.Collisions++
			// Each station must be drawn exactly once per busy period:
			// attackers through the failure path, the rest through
			// resume. A naive "redraw then resume anything non-zero"
			// double-draws attackers whose fresh counter came up ≥ 1,
			// inflating their attempt probability from p to p+(1−p)p.
			for _, i := range s.attackerIdx {
				st := &s.stations[i]
				st.policy.OnFailure(st.rng)
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
//
//wlanvet:hotpath
func (s *Simulator) track(i, counter int) {
	st := &s.stations[i]
	st.counter = counter
	st.expiry = s.tracker.base + int64(counter)
	s.tracker.insert(i, counter)
}

// untrack removes station i from the tracker.
//
//wlanvet:hotpath
func (s *Simulator) untrack(i int) {
	st := &s.stations[i]
	s.tracker.remove(i, st.expiry-s.tracker.base)
}

// observe feeds medium-observing policies (IdleSense) the idle run that
// preceded the busy period just starting. The pass walks only the
// observing stations (ascending, the same call order as the full scan it
// replaces) and costs nothing when no policy observes the medium.
//
//wlanvet:hotpath
func (s *Simulator) observe(idleRun int64) {
	for _, i := range s.observerIdx {
		s.stations[i].observer.ObserveTransmission(float64(idleRun))
	}
}

// redraw draws a fresh backoff for station i after an attempt (i has
// been taken out of the tracker with the expired bucket) and re-tracks
// it while it remains backlogged. The draw is consumed regardless — the
// pre-tracker code drew unconditionally, and every draw is pinned.
//
//wlanvet:hotpath
func (s *Simulator) redraw(i int) {
	st := &s.stations[i]
	c := st.policy.NextBackoff(st.rng)
	if st.backlogged() {
		s.track(i, c)
	} else {
		st.counter = c
	}
}

// resume applies post-busy-period counter semantics to the stations that
// did not attempt in the closing busy period: memoryless policies redraw
// (and move buckets), window policies keep their frozen residual — and
// their tracker position — untouched, making this pass free for DCF.
// attackers lists the stations that transmitted (already redrawn by
// their outcome paths), sorted ascending.
//
//wlanvet:hotpath
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
		st := &s.stations[i]
		if !st.backlogged() {
			continue // no frame, no counter to maintain
		}
		s.untrack(i)
		s.track(i, st.policy.NextBackoff(st.rng))
	}
}

// admitArrivals moves every arrival with timestamp ≤ now into its
// station's queue, drawing the counter when the station becomes
// backlogged. Drops are counted against a full queue. Only the
// unsaturated stations are visited (ascending — the admission order the
// full scan produced), so a mostly saturated large-n population pays
// nothing here.
//
//wlanvet:hotpath
func (s *Simulator) admitArrivals() {
	for _, i32 := range s.unsatIdx {
		i := int(i32)
		st := &s.stations[i]
		for !st.next.After(s.now) {
			s.res.PacketsArrived++
			if st.qlen >= st.arr.EffectiveQueueCap() {
				s.res.PacketsDropped++
			} else {
				st.qlen++
				if st.qlen == 1 {
					// A fresh head-of-line frame draws a fresh backoff
					// from the policy's current state and (re)joins the
					// tracker.
					s.track(i, st.policy.NextBackoff(st.rng))
				}
			}
			st.next = st.next.Add(st.arr.NextInterArrival(st.arrRNG))
		}
	}
}

// slotsUntilArrival returns the number of whole slots from now until the
// earliest pending arrival among unsaturated stations (minimum 1).
//
//wlanvet:hotpath
func (s *Simulator) slotsUntilArrival() int {
	earliest := sim.Time(int64(^uint64(0) >> 1))
	found := false
	for _, i := range s.unsatIdx {
		st := &s.stations[i]
		if st.next.Before(earliest) {
			earliest = st.next
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
	for i := range s.stations {
		s.stations[i].policy.OnControl(s.control)
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
