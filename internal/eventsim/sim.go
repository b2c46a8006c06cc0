package eventsim

import (
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// txKind distinguishes the frame classes stations put on the air.
type txKind uint8

const (
	kindData txKind = iota
	kindRTS
)

// transmission is one station frame in the air (data or RTS).
type transmission struct {
	st       *station
	kind     txKind
	start    sim.Time
	end      sim.Time
	collided bool
}

// Simulator is a single WLAN run: N stations, one AP, one channel. The
// zero value is ready: Reset builds a run of a Config in it (New is Reset
// on a new Simulator) and Run drives it. A Simulator is not safe for
// concurrent use (run parallel instances for parallel experiments).
type Simulator struct {
	arena
	cfg Config

	// Air state at the AP.
	apTx       bool // AP is transmitting (ACK or beacon)
	apBusy     int  // transmissions audible at the AP (incl. its own)
	ackPending bool // an ACK is scheduled (SIFS gap in progress)

	apIdle      stats.IdleSlotTracker
	windowMeter stats.ThroughputMeter
	totalBits   int64
	channelRNG  sim.RNG // frame-error draws (sim.ChannelStream)
	frameErrors int64

	control    frame.Control
	beaconSeq  uint16
	beaconDue  bool
	beaconWait sim.Ref // pending PIFS countdown to a beacon

	// Lazy contention wake-up state (see contention.go): candSt is the
	// armed station holding the scheduler's candidate — the minimum
	// (due, vseq) attempt — and contDirty marks that the candidate was
	// withdrawn and the minimum must be re-established before the
	// current event callback returns.
	candSt    *station
	contDirty bool

	// PHY-derived durations, computed once at init: the per-frame paths
	// consume these constantly and the float maths behind TxTime is not
	// free.
	tData       sim.Duration
	tRTS        sim.Duration
	tCTS        sim.Duration
	tACK        sim.Duration
	tACKTimeout sim.Duration
	tPIFS       sim.Duration
	tNAV        sim.Duration

	successes  int64
	collisions int64

	// Traffic accounting. unsaturated is true when any station has a
	// finite-load arrival process; the latency histogram and jitter
	// accumulators aggregate delivered-packet delays across stations.
	unsaturated   bool
	latHist       stats.DurationHist
	jitterSum     sim.Duration
	jitterCount   int64
	totalArrivals int64
	totalDrops    int64

	// maxConcurrent tracks the peak number of simultaneous data frames,
	// a cheap invariant probe (must stay ≥ 2 only when hidden pairs or
	// slot-synchronised collisions occur).
	maxConcurrent int
}

// arena is the storage a Simulator carries from one run to the next.
// init trims it in place and zeroes every other field, so a field
// outside arena is fresh per run by construction.
type arena struct {
	sched *sim.Scheduler

	stations []*station

	// Carrier sense (see busy.go): rows are the stations' sense rows,
	// busy the stations that sense a busy medium, nav the stations a
	// live NAV hold covers, all every station, and scratch the idle
	// candidates of one settling pass (all-zero between passes).
	// navHolds are the live NAV holds, navPool the recycled ones.
	rows     senseRows
	busy     bitset
	nav      bitset
	all      bitset
	scratch  bitset
	navHolds []*navHold
	navPool  []*navHold

	active []*transmission // data frames currently in the air

	// txPool recycles transmission records so the steady-state frame
	// lifecycle allocates nothing.
	txPool []*transmission

	// Lazy contention keys (see contention.go): ready is the bitmap of
	// armed stations, and dues/vseqs hold their (due, vseq) keys — the
	// instant each is due to transmit, and the scheduler sequence number
	// reserved at arm time, which keeps the exact same-instant FIFO
	// order eager per-station scheduling would have produced. They are
	// flat arrays so the minimum scan walks memory linearly instead of
	// chasing station pointers.
	ready bitset
	dues  []sim.Time
	vseqs []uint64

	throughputSeries stats.TimeSeries
	controlSeries    stats.TimeSeries
	activeSeries     stats.TimeSeries

	// Pre-bound event callbacks. Binding once and scheduling via
	// AtArg/AfterArg keeps the per-frame path free of closure
	// allocations: each schedule passes an existing func value plus a
	// pointer argument, neither of which escapes to the heap.
	txBeginFn      func(any)
	txCompleteFn   func(any)
	failTimeoutFn  func(any)
	ctsBeginFn     func(any)
	ctsEndFn       func(any)
	navEndFn       func(any)
	reservedDataFn func(any)
	ackBeginFn     func(any)
	ackEndFn       func(any)
	windowFn       func(any)
	beaconTickFn   func(any)
	beaconTxFn     func(any)
	beaconEndFn    func(any)
	arrivalFn      func(any)
	phaseFn        func(any)
	setActiveFn    func(any)
}

// New validates cfg and assembles a simulator.
func New(cfg Config) (*Simulator, error) {
	s := new(Simulator)
	return s, s.Reset(cfg)
}

// Reset validates cfg and builds a fresh run of it in s, leaving s
// untouched on error. It reuses the arena of earlier runs — the
// scheduler's event pool, station records, transmission pool, series
// and queue storage — so a pooled simulator replays replication after
// replication without the allocations of a first build. The result is
// bit-identical to New(cfg): TestResetMatchesNew pins Result equality
// byte for byte.
func (s *Simulator) Reset(cfg Config) error {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	if s.sched == nil {
		s.bind()
	} else {
		s.sched.Reset()
	}
	s.init(cfg)
	return nil
}

// bind creates the scheduler and binds the event callbacks to s, on the
// first Reset.
func (s *Simulator) bind() {
	s.sched = sim.NewScheduler()
	s.txBeginFn = func(a any) { s.txBegin(a.(*station)) }
	s.txCompleteFn = func(a any) { s.txComplete(a.(*transmission)) }
	s.failTimeoutFn = func(a any) { s.failTimeout(a.(*station)) }
	s.ctsBeginFn = func(a any) { s.ctsBegin(a.(*station)) }
	s.ctsEndFn = func(a any) { s.ctsEnd(a.(*station)) }
	s.navEndFn = func(a any) { s.navEnd(a.(*navHold)) }
	s.reservedDataFn = func(a any) { s.reservedData(a.(*station)) }
	s.ackBeginFn = func(a any) { s.ackBegin(a.(*station)) }
	s.ackEndFn = func(a any) { s.ackEnd(a.(*station)) }
	s.windowFn = func(any) { s.controllerWindow() }
	s.beaconTickFn = func(any) { s.beaconTick() }
	s.beaconTxFn = func(any) { s.beaconTx() }
	s.beaconEndFn = func(any) { s.beaconEnd() }
	s.arrivalFn = func(a any) { s.arrival(a.(*station)) }
	s.phaseFn = func(a any) { s.phaseFlip(a.(*station)) }
	s.setActiveFn = func(a any) { s.setActive(a.(int)) }
	// rearm runs after every dispatched event, re-establishing a
	// withdrawn lazy-wakeup candidate exactly once per event however
	// many transitions the callback performed — one enforcement point
	// instead of a rearm call at every callback return site.
	s.sched.SetAfterDispatch(func() { s.rearm() })
}

// init builds run state for a validated cfg on top of s's arena.
func (s *Simulator) init(cfg Config) {
	s.throughputSeries.Reset("throughput")
	s.controlSeries.Reset("control")
	s.activeSeries.Reset("active")
	s.active = s.active[:0]
	// A Reset scheduler dropped the release events of live NAV holds:
	// recycle the holds.
	s.navPool = append(s.navPool, s.navHolds...)
	s.navHolds = s.navHolds[:0]
	*s = Simulator{
		arena:  s.arena,
		cfg:    cfg,
		apIdle: stats.NewIdleSlotTracker(cfg.PHY.Slot, cfg.PHY.DIFS),
	}
	s.channelRNG.Reseed(cfg.Seed, sim.ChannelStream)
	if cfg.Controller != nil {
		s.control = cfg.Controller.Control()
	}
	s.tData = cfg.PHY.DataTxTime()
	s.tRTS = cfg.PHY.RTSTxTime()
	s.tCTS = cfg.PHY.CTSTxTime()
	s.tACK = cfg.PHY.ACKTxTime()
	s.tACKTimeout = cfg.PHY.ACKTimeout()
	s.tPIFS = cfg.PHY.PIFS()
	s.tNAV = cfg.PHY.SIFS + s.tData + cfg.PHY.SIFS + s.tACK
	n := cfg.Topology.N()
	if cap(s.stations) < n {
		grown := make([]*station, n)
		copy(grown, s.stations[:cap(s.stations)])
		s.stations = grown
	} else {
		s.stations = s.stations[:n]
	}
	for i := 0; i < n; i++ {
		st := s.stations[i]
		if st == nil {
			st = &station{}
			s.stations[i] = st
		}
		qbuf := st.queue.buf[:0]
		*st = station{
			id:            i,
			policy:        cfg.Policies[i],
			state:         stateInactive,
			senseIdleOpen: true,
		}
		st.observer, _ = st.policy.(mac.MediumObserver)
		if m, ok := st.policy.(mac.Memoryless); ok {
			st.memoryless = m.BackoffMemoryless()
		}
		st.queue.buf = qbuf
		st.rng.Reseed(cfg.Seed, int64(i))
	}
	s.rows.build(cfg.Topology)
	if cap(s.dues) < n {
		s.dues = make([]sim.Time, n)
		s.vseqs = make([]uint64, n)
	} else {
		s.dues, s.vseqs = s.dues[:n], s.vseqs[:n]
	}
	if cfg.Arrivals != nil {
		for i, st := range s.stations {
			st.arr = cfg.Arrivals[i]
			if st.arr.Unsaturated() {
				s.unsaturated = true
				st.arrivalRNG.Reseed(cfg.Seed, sim.ArrivalStream(i))
			}
		}
	}
	s.ready.grow(n)
	s.busy.grow(n)
	s.nav.grow(n)
	s.scratch.grow(n)
	s.all.grow(n)
	for i := 0; i < n; i++ {
		s.all.set(i)
	}
	s.apIdle.MediumIdle(0)
	for i := 0; i < cfg.InitialActive; i++ {
		s.activateNow(s.stations[i])
	}
}

// Scheduler exposes the event clock, mainly for tests and custom
// scenario scripting.
func (s *Simulator) Scheduler() *sim.Scheduler { return s.sched }

// ActiveStations returns how many stations currently contend.
func (s *Simulator) ActiveStations() int {
	count := 0
	for _, st := range s.stations {
		if st.state != stateInactive || st.deferredStop {
			count++
		}
	}
	return count
}

// SetActiveAt schedules the set of active stations to become exactly the
// first n stations at simulated time t. Must be called before Run reaches
// t. This drives the dynamic-arrival scenarios of Figs. 8–11.
func (s *Simulator) SetActiveAt(t sim.Time, n int) error {
	if n < 0 || n > len(s.stations) {
		return fmt.Errorf("eventsim: SetActiveAt(%v, %d): count outside [0, %d]", t, n, len(s.stations))
	}
	s.sched.AtArg(t, s.setActiveFn, n)
	return nil
}

// setActive makes exactly the first n stations active.
func (s *Simulator) setActive(n int) {
	for i, st := range s.stations {
		if i < n {
			s.activateNow(st)
		} else {
			s.deactivateNow(st)
		}
	}
}

func (s *Simulator) activateNow(st *station) {
	st.deferredStop = false
	if st.state != stateInactive {
		// Reactivated while its deferred-stop exchange is still in
		// flight: deactivateNow already silenced the arrival process, so
		// restart it or the station would drain its queue and then idle
		// forever while nominally active.
		if st.arr.Unsaturated() && !st.nextArrival.Active() && !st.phaseRef.Active() {
			s.startTrafficSource(st)
		}
		return
	}
	now := s.sched.Now()
	// A newly active station has no countdown anchor yet; start a fresh
	// idle view of the medium from "now".
	if !s.busy.has(st.id) {
		st.idleSince = now
		st.senseIdleOpen = true
	}
	if st.arr.Unsaturated() {
		// Unsaturated sources start their arrival process and contend
		// only once a packet exists. A queue surviving an earlier
		// deactivation resumes service.
		s.startTrafficSource(st)
		if st.queue.len() > 0 {
			s.startContention(st)
		} else {
			st.state = stateIdle
		}
		return
	}
	st.state = stateContending
	st.holSince = now
	s.startContention(st)
}

// startTrafficSource (re)arms an unsaturated station's arrival process:
// OnOff sources begin in an On phase.
func (s *Simulator) startTrafficSource(st *station) {
	st.trafficOn = true
	if st.arr.Kind == traffic.OnOff {
		st.phaseRef = s.sched.AfterArg(st.arr.NextPhase(true, &st.arrivalRNG), s.phaseFn, st)
	}
	s.scheduleArrival(st)
}

func (s *Simulator) deactivateNow(st *station) {
	// Arrivals stop immediately on departure, whatever the MAC state.
	st.nextArrival.Cancel()
	st.nextArrival = sim.Ref{}
	st.phaseRef.Cancel()
	st.phaseRef = sim.Ref{}
	st.trafficOn = false
	switch st.state {
	case stateInactive:
	case stateIdle:
		st.state = stateInactive
	case stateContending:
		s.disarm(st)
		st.state = stateInactive
	default:
		// Mid-transmission or awaiting ACK: finish the exchange first.
		st.deferredStop = true
	}
}

// scheduleArrival arms the next packet-arrival event while the source is
// emitting.
func (s *Simulator) scheduleArrival(st *station) {
	if !st.trafficOn {
		return
	}
	st.nextArrival = s.sched.AfterArg(st.arr.NextInterArrival(&st.arrivalRNG), s.arrivalFn, st)
}

// arrival delivers one packet to st's queue, dropping it when the queue
// is at capacity, and wakes the station if it was idling.
func (s *Simulator) arrival(st *station) {
	st.nextArrival = sim.Ref{}
	if st.state == stateInactive {
		return // defensive: arrivals are cancelled on deactivation
	}
	st.arrivals++
	s.totalArrivals++
	if st.queue.len() >= st.arr.EffectiveQueueCap() {
		st.drops++
		s.totalDrops++
	} else {
		st.queue.push(s.sched.Now())
		if st.state == stateIdle {
			s.startContention(st)
		}
	}
	s.scheduleArrival(st)
}

// phaseFlip toggles an OnOff source between emitting and silent phases.
func (s *Simulator) phaseFlip(st *station) {
	st.phaseRef = sim.Ref{}
	if st.state == stateInactive {
		return
	}
	st.trafficOn = !st.trafficOn
	if st.trafficOn {
		s.scheduleArrival(st)
	} else {
		st.nextArrival.Cancel()
		st.nextArrival = sim.Ref{}
	}
	st.phaseRef = s.sched.AfterArg(st.arr.NextPhase(st.trafficOn, &st.arrivalRNG), s.phaseFn, st)
}

// recordLatency accounts one delivered packet's arrival→ACK delay into
// the per-station and aggregate latency/jitter statistics.
func (s *Simulator) recordLatency(st *station, lat sim.Duration) {
	s.latHist.Observe(lat)
	st.latSum += lat
	if st.latCount > 0 {
		d := lat - st.lastLat
		if d < 0 {
			d = -d
		}
		s.jitterSum += d
		s.jitterCount++
	}
	st.lastLat = lat
	st.latCount++
}

// startContention draws a fresh backoff and arms the countdown.
func (s *Simulator) startContention(st *station) {
	st.state = stateContending
	st.remaining = st.policy.NextBackoff(&st.rng)
	s.armCountdown(st)
}

// armCountdown arms the transmission attempt virtually if the medium is
// currently idle for st; otherwise the countdown stays frozen until
// crossIdle re-arms it. Arming reserves the scheduler sequence number
// the eager code would have consumed, but pushes no event: only the
// minimum attempt is the scheduler's candidate.
func (s *Simulator) armCountdown(st *station) {
	if st.state != stateContending || s.busy.has(st.id) {
		return
	}
	now := s.sched.Now()
	base := st.idleSince.Add(s.cfg.PHY.DIFS)
	if base.Before(now) {
		// The station joined an already-idle medium; anchor at now.
		base = now
	}
	at := base.Add(sim.Duration(st.remaining) * s.cfg.PHY.Slot)
	st.runStart = base
	vseq := s.sched.TakeSeq()
	s.dues[st.id], s.vseqs[st.id] = at, vseq
	s.ready.set(st.id)
	// While the candidate is current it is the minimum armed attempt, and
	// a fresh arm carries the newest vseq: it takes the candidate over iff
	// it is due strictly earlier, with no scan. A withdrawn candidate is
	// re-established by rearm's scan instead.
	if !s.contDirty && (s.candSt == nil || at < s.dues[s.candSt.id]) {
		s.candSt = st
		s.sched.SetCandidate(at, vseq, s.txBeginFn, st)
	}
}

// crossBusy runs when st starts sensing a busy medium.
func (s *Simulator) crossBusy(st *station) {
	now := s.sched.Now()
	// Close the observed idle gap (IdleSense input).
	if st.senseIdleOpen {
		if st.state != stateInactive {
			s.observeIdleGap(st, now)
		}
		st.senseIdleOpen = false
	}
	if st.state != stateContending || !s.ready.has(st.id) {
		return
	}
	if s.dues[st.id] == now {
		// The station's own attempt is due at this very instant: it is
		// committed (carrier sense cannot act within the same slot
		// boundary), so the events collide — exactly the synchronised
		// slot-boundary collision of CSMA.
		return
	}
	// Freeze: bank the fully elapsed slots and retract the attempt. A
	// memoryless station banks nothing: every later arm follows a redraw
	// (crossIdle, startContention), so its residual is never read.
	if !st.memoryless {
		elapsed := 0
		if now.After(st.runStart) {
			//wlanvet:allow bounded: the delta is within one run and spec validation caps durations far below 2³¹ slots; clamped to remaining below
			elapsed = int(now.Sub(st.runStart) / s.cfg.PHY.Slot)
		}
		if elapsed > st.remaining {
			elapsed = st.remaining
		}
		st.remaining -= elapsed
	}
	s.disarm(st)
}

// observeIdleGap feeds a medium-observing policy (IdleSense) the idle gap
// that just closed, using the 802.11 convention: gaps shorter than DIFS
// belong to the ongoing frame exchange, and only time beyond the
// mandatory DIFS counts as idle slots.
func (s *Simulator) observeIdleGap(st *station, now sim.Time) {
	if st.observer == nil {
		return
	}
	gap := now.Sub(st.idleSince)
	if gap < s.cfg.PHY.DIFS {
		return
	}
	st.observer.ObserveTransmission(float64(gap-s.cfg.PHY.DIFS) / float64(s.cfg.PHY.Slot))
}

// crossIdle runs when the medium st senses goes idle.
func (s *Simulator) crossIdle(st *station) {
	now := s.sched.Now()
	st.idleSince = now
	st.senseIdleOpen = true
	if st.state == stateContending && !s.ready.has(st.id) {
		// p-persistent backoff has no memory across busy periods: the
		// first slot after the resumption is an ordinary Bernoulli(p)
		// slot, so redraw instead of resuming the frozen residual
		// (which is conditioned ≥ 1 and would bias the idle-slot
		// distribution away from Eq. (2)'s i.i.d. slots).
		if st.memoryless {
			st.remaining = st.policy.NextBackoff(&st.rng)
		}
		s.armCountdown(st)
	}
}

// newTransmission takes a recycled record from the pool, or allocates
// while the pool warms up.
func (s *Simulator) newTransmission() *transmission {
	if n := len(s.txPool); n > 0 {
		rec := s.txPool[n-1]
		s.txPool[n-1] = nil
		s.txPool = s.txPool[:n-1]
		*rec = transmission{}
		return rec
	}
	return &transmission{}
}

// freeTransmission recycles a record once txComplete has consumed it. No
// reference survives: the record has been removed from s.active and its
// scheduler event has already fired.
func (s *Simulator) freeTransmission(rec *transmission) {
	rec.st = nil
	// Amortised: the pool grows to the concurrent-transmission high-water mark, then every append reuses capacity
	s.txPool = append(s.txPool, rec)
}

// txBegin puts st's data frame on the air. It fires as the scheduler's
// candidate, which firing withdrew.
func (s *Simulator) txBegin(st *station) {
	s.ready.clear(st.id)
	s.candSt = nil
	s.contDirty = true
	if st.state != stateContending {
		return
	}
	now := s.sched.Now()
	st.state = stateTransmitting
	// The transmitter observes its own frame as a busy period for the
	// purposes of idle-gap measurement.
	if st.senseIdleOpen {
		s.observeIdleGap(st, now)
		st.senseIdleOpen = false
	}

	kind := kindData
	airtime := s.tData
	if s.cfg.RTSCTS {
		kind = kindRTS
		airtime = s.tRTS
	}
	rec := s.newTransmission()
	rec.st, rec.kind, rec.start, rec.end = st, kind, now, now.Add(airtime)
	s.launch(rec)
}

// launch puts a station frame on the air, applying the paper's collision
// rule: any temporal overlap of two station frames destroys both, and a
// frame overlapping an AP transmission is lost (the AP cannot receive
// while sending).
func (s *Simulator) launch(rec *transmission) {
	now := s.sched.Now()
	if s.apTx {
		rec.collided = true
	}
	for _, other := range s.active {
		other.collided = true
		rec.collided = true
	}
	// Amortised: active grows to the concurrent-transmission high-water mark, then every append reuses capacity
	s.active = append(s.active, rec)
	if len(s.active) > s.maxConcurrent {
		s.maxConcurrent = len(s.active)
	}
	s.apBusyStart(now)
	s.busyRow(rec.st.id)
	s.sched.AtArg(rec.end, s.txCompleteFn, rec)
}

// txComplete removes the frame from the air and routes to the ACK or
// failure path.
func (s *Simulator) txComplete(rec *transmission) {
	st := rec.st
	now := s.sched.Now()
	for i, r := range s.active {
		if r == rec {
			// In place: the removal compacts s.active over its own backing array, never growing it
			s.active = append(s.active[:i], s.active[i+1:]...)
			break
		}
	}
	// The record is now unreachable (out of s.active, its completion
	// event fired); consume its fields and recycle it before the state
	// machinery below can schedule follow-ups.
	kind, collided := rec.kind, rec.collided
	s.freeTransmission(rec)
	// Footnote 1: i.i.d. channel errors on data frames. The frame is
	// simply never acknowledged; the transmitter cannot distinguish the
	// loss from a collision and takes the same failure path. It is drawn
	// before the row settles, which needs to know whether the AP answers;
	// the channel stream has no other consumer, so its order is unchanged.
	lost := kind == kindData && !collided &&
		s.cfg.FrameErrorRate > 0 && s.channelRNG.Bernoulli(s.cfg.FrameErrorRate)
	s.apBusyEnd(now)
	s.idleRow(st.id, !collided && !lost)
	st.state = stateAwaiting
	// From the transmitter's own perspective the medium state resumes
	// from the end of its frame.
	if !s.busy.has(st.id) {
		st.idleSince = now
		st.senseIdleOpen = true
	}
	if kind == kindRTS {
		if s.cfg.Trace != nil {
			s.cfg.Trace.Frame(now, &frame.RTS{
				Source: frame.Address(st.id),
				//wlanvet:allow the 802.11 Duration/ID field is 16 bits by spec; one exchange's NAV is far below 65535 µs
				Duration: uint16(s.navDuration() / sim.Microsecond),
			}, collided)
		}
		if collided {
			s.collisions++
			s.sched.AfterArg(s.tACKTimeout, s.failTimeoutFn, st)
			return
		}
		s.sched.AfterArg(s.cfg.PHY.SIFS, s.ctsBeginFn, st)
		return
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace.Frame(now, &frame.Data{
			Source:      frame.Address(st.id),
			Destination: frame.AddressAP,
			Sequence:    st.seq,
			Retry:       st.retries,
			Bits:        s.cfg.PHY.Payload,
		}, collided)
	}
	if collided {
		s.collisions++
		s.sched.AfterArg(s.tACKTimeout, s.failTimeoutFn, st)
		return
	}
	if lost {
		s.frameErrors++
		s.sched.AfterArg(s.tACKTimeout, s.failTimeoutFn, st)
		return
	}
	s.ackPending = true
	s.sched.AfterArg(s.cfg.PHY.SIFS, s.ackBeginFn, st)
}

// navDuration is the medium reservation a CTS announces: the remainder of
// the exchange after the CTS ends (SIFS + data + SIFS + ACK).
func (s *Simulator) navDuration() sim.Duration { return s.tNAV }

// ctsBegin starts the AP's clear-to-send answer to an uncollided RTS.
func (s *Simulator) ctsBegin(target *station) {
	now := s.sched.Now()
	if s.apTx {
		panic("eventsim: overlapping AP transmissions")
	}
	s.apTx = true
	for _, r := range s.active {
		r.collided = true // a frame overlapping the CTS is lost at the AP
	}
	s.apBusyStart(now)
	s.busyAll()
	s.sched.AfterArg(s.tCTS, s.ctsEndFn, target)
}

// ctsEnd completes the CTS: every station that could decode it arms its
// NAV for the rest of the exchange, and the reservation owner proceeds to
// its data frame after SIFS.
func (s *Simulator) ctsEnd(target *station) {
	now := s.sched.Now()
	s.apTx = false
	s.apBusyEnd(now)
	// Every station is busy under the CTS; the candidates to go idle are
	// those no earlier NAV holds. Arm the NAV before settling them, so
	// the stations it holds skip the zero-length idle window between the
	// CTS and the NAV (skipGap) instead of crossing it. A station that
	// is itself mid-transmission cannot have decoded the CTS (half
	// duplex) and keeps contending blindly — the residual collision
	// channel RTS/CTS cannot close.
	s.idleCandidates()
	hold := s.holdNAV(target)
	s.idleScratch(hold.mask.words)
	if s.cfg.Trace != nil {
		s.cfg.Trace.Frame(now, &frame.CTS{
			Receiver: frame.Address(target.id),
			//wlanvet:allow the 802.11 Duration/ID field is 16 bits by spec; one exchange's NAV is far below 65535 µs
			Duration: uint16(s.navDuration() / sim.Microsecond),
		}, false)
	}
	s.sched.AfterArg(s.navDuration(), s.navEndFn, hold)
	s.sched.AfterArg(s.cfg.PHY.SIFS, s.reservedDataFn, target)
}

// reservedData transmits the data frame inside an RTS/CTS reservation.
func (s *Simulator) reservedData(st *station) {
	if st.state != stateAwaiting {
		return
	}
	now := s.sched.Now()
	st.state = stateTransmitting
	rec := s.newTransmission()
	rec.st, rec.kind = st, kindData
	rec.start, rec.end = now, now.Add(s.tData)
	s.launch(rec)
}

// ackBegin starts the AP's acknowledgement.
func (s *Simulator) ackBegin(target *station) {
	now := s.sched.Now()
	if s.apTx {
		panic("eventsim: overlapping AP transmissions")
	}
	s.ackPending = false
	s.apTx = true
	// Any data frame still in the air overlaps the ACK and is lost.
	for _, r := range s.active {
		r.collided = true
	}
	s.apBusyStart(now)
	s.busyAll()
	s.sched.AfterArg(s.tACK, s.ackEndFn, target)
}

// ackEnd completes a successful exchange: deliver the ACK (with the
// control broadcast) and restart contention at the transmitter.
func (s *Simulator) ackEnd(target *station) {
	now := s.sched.Now()
	s.apTx = false
	s.apBusyEnd(now)
	s.idleAll()

	payload := s.cfg.PHY.Payload
	s.windowMeter.Account(payload)
	s.totalBits += int64(payload)
	target.bitsDelivered += int64(payload)
	target.successes++
	s.successes++

	if s.cfg.Trace != nil {
		s.cfg.Trace.Frame(now, &frame.ACK{
			Receiver: frame.Address(target.id),
			Sequence: target.seq,
			Control:  s.control,
		}, false)
	}

	target.policy.OnSuccess(&target.rng)
	// All stations hear AP transmissions (system model), so the control
	// broadcast reaches everyone, as wTOP-CSMA requires.
	s.broadcastControl()

	// Per-packet latency: from arrival (saturated sources: the instant
	// the packet became head-of-line) to ACK completion.
	if target.arr.Unsaturated() {
		s.recordLatency(target, now.Sub(target.queue.pop()))
	} else {
		s.recordLatency(target, now.Sub(target.holSince))
		target.holSince = now
	}

	target.seq++
	target.retries = 0
	if target.deferredStop {
		target.deferredStop = false
		target.state = stateInactive
		return
	}
	if target.arr.Unsaturated() && target.queue.len() == 0 {
		target.state = stateIdle
		return
	}
	s.startContention(target)
}

// failTimeout fires when the transmitter concludes its frame was lost.
func (s *Simulator) failTimeout(st *station) {
	st.failures++
	if st.retries < math.MaxUint8 {
		st.retries++ // saturates: a wrapped counter would read as a first attempt
	}
	st.policy.OnFailure(&st.rng)
	if st.deferredStop {
		st.deferredStop = false
		st.state = stateInactive
		return
	}
	s.startContention(st)
}

// broadcastControl delivers the AP's current control block to every
// active station.
func (s *Simulator) broadcastControl() {
	if s.cfg.Controller == nil {
		return
	}
	for _, st := range s.stations {
		if st.state != stateInactive {
			st.policy.OnControl(s.control)
		}
	}
}

// apBusyStart/apBusyEnd maintain the AP-side medium view used for the
// idle-slot statistic of Table III.
func (s *Simulator) apBusyStart(now sim.Time) {
	s.apBusy++
	if s.apBusy == 1 {
		s.apIdle.MediumBusy(now)
		s.beaconWait.Cancel()
		s.beaconWait = sim.Ref{}
	}
}

func (s *Simulator) apBusyEnd(now sim.Time) {
	s.apBusy--
	if s.apBusy < 0 {
		panic("eventsim: negative AP busy count")
	}
	if s.apBusy == 0 {
		s.apIdle.MediumIdle(now)
		s.tryBeacon()
	}
}

// controllerWindow closes one UPDATE_PERIOD measurement window.
func (s *Simulator) controllerWindow() {
	now := s.sched.Now()
	rate := s.windowMeter.Rate(now)
	s.throughputSeries.Append(now, rate)
	s.activeSeries.Append(now, float64(s.ActiveStations()))
	if s.cfg.Controller != nil {
		s.cfg.Controller.OnWindowEnd(rate)
		s.control = s.cfg.Controller.Control()
		s.controlSeries.Append(now, s.controlValue())
	}
	s.windowMeter.ResetWindow(now)
	s.sched.AfterArg(s.cfg.UpdatePeriod, s.windowFn, nil)
}

// controlValue extracts the tuned variable for the convergence series:
// p for wTOP-CSMA, p0 for TORA-CSMA.
func (s *Simulator) controlValue() float64 {
	switch s.control.Scheme {
	case frame.ControlWTOP:
		return s.control.P
	case frame.ControlTORA:
		return s.control.P0
	default:
		return 0
	}
}

// beaconTick marks a beacon due and reschedules the timer. The beacon is
// actually sent by tryBeacon once the medium allows.
func (s *Simulator) beaconTick() {
	s.beaconDue = true
	s.tryBeacon()
	s.sched.AfterArg(s.cfg.BeaconInterval, s.beaconTickFn, nil)
}

// tryBeacon arms a PIFS countdown towards a beacon transmission when one
// is due and the medium is free at the AP. PIFS < DIFS gives the AP
// priority over every station's backoff — real 802.11 beacon behaviour —
// so control information keeps flowing even during collision collapse,
// when no ACKs exist to carry it.
func (s *Simulator) tryBeacon() {
	if !s.beaconDue || s.beaconWait.Active() || s.apTx || s.ackPending || s.apBusy > 0 {
		return
	}
	s.beaconWait = s.sched.AfterArg(s.tPIFS, s.beaconTxFn, nil)
}

// beaconTx puts the beacon on the air.
func (s *Simulator) beaconTx() {
	s.beaconWait = sim.Ref{}
	s.beaconDue = false
	now := s.sched.Now()
	s.apTx = true
	// Any data frame overlapping the beacon is lost (AP transmitting);
	// none can be active here because the PIFS countdown is cancelled on
	// any busy start, but a station may still start at the same instant
	// later in the event queue — txBegin handles that via the apTx check.
	s.apBusyStart(now)
	s.busyAll()
	s.beaconSeq++
	s.sched.AfterArg(s.tACK, s.beaconEndFn, nil)
}

// beaconEnd completes the beacon. Beacons never overlap (tryBeacon bails
// while apBusy > 0 and beaconDue stays false until the next tick), so
// s.beaconSeq still identifies the frame that just finished.
func (s *Simulator) beaconEnd() {
	s.apTx = false
	s.apBusyEnd(s.sched.Now())
	s.idleAll()
	if s.cfg.Trace != nil {
		s.cfg.Trace.Frame(s.sched.Now(), &frame.Beacon{Sequence: s.beaconSeq, Control: s.control}, false)
	}
	s.broadcastControl()
}

// Run advances the simulation to the given duration of simulated time
// and returns the accumulated results. Run may be called repeatedly with
// increasing durations to sample intermediate results.
func (s *Simulator) Run(duration sim.Duration) *Result {
	end := sim.Time(duration)
	if s.sched.Fired() == 0 {
		s.sched.AfterArg(s.cfg.UpdatePeriod, s.windowFn, nil)
		if s.cfg.BeaconInterval > 0 {
			s.sched.AfterArg(s.cfg.BeaconInterval, s.beaconTickFn, nil)
		}
	}
	s.sched.RunUntil(end)
	return s.result()
}

func (s *Simulator) result() *Result {
	now := s.sched.Now()
	res := &Result{
		Duration:      now.Sub(0),
		Throughput:    float64(s.totalBits) / now.Seconds(),
		Successes:     s.successes,
		Collisions:    s.collisions,
		FrameErrors:   s.frameErrors,
		APIdleSlots:   s.apIdle.Average(),
		MaxConcurrent: s.maxConcurrent,
		// The series are cloned: their storage is the arena's, which
		// the next Reset reuses.
		ThroughputSeries: s.throughputSeries.Clone(),
		ControlSeries:    s.controlSeries.Clone(),
		ActiveSeries:     s.activeSeries.Clone(),
		EventsFired:      s.sched.Fired(),
		Latency:          s.latHist,
		JitterSum:        s.jitterSum,
		JitterCount:      s.jitterCount,
		PacketsArrived:   s.totalArrivals,
		PacketsDropped:   s.totalDrops,
	}
	res.Stations = make([]StationStats, len(s.stations))
	for i, st := range s.stations {
		weight := 1.0
		if pp, ok := st.policy.(*mac.PPersistent); ok {
			weight = pp.Weight
		}
		var meanLat sim.Duration
		if st.latCount > 0 {
			meanLat = st.latSum / sim.Duration(st.latCount)
		}
		res.Stations[i] = StationStats{
			Successes:     st.successes,
			Failures:      st.failures,
			BitsDelivered: st.bitsDelivered,
			Throughput:    float64(st.bitsDelivered) / now.Seconds(),
			Weight:        weight,
			Arrivals:      st.arrivals,
			Drops:         st.drops,
			MeanLatency:   meanLat,
		}
	}
	return res
}
