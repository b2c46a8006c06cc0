package eventsim

import (
	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// stationState is the MAC state of one station.
type stationState uint8

const (
	// stateContending: the station is serving its backoff (possibly
	// frozen behind a sensed transmission).
	stateContending stationState = iota
	// stateTransmitting: the station's data frame is in the air.
	stateTransmitting
	// stateAwaiting: data sent, waiting for the ACK or the timeout.
	stateAwaiting
	// stateInactive: the station is not participating.
	stateInactive
	// stateIdle: the station is active but its queue is empty — it waits
	// for the next packet arrival instead of contending. Only
	// unsaturated traffic sources ever enter this state.
	stateIdle
)

// arrivalQueue is a FIFO of packet arrival instants. Head-index popping
// with periodic compaction keeps the steady state allocation-free once
// the backing array has grown to the high-water mark.
type arrivalQueue struct {
	buf  []sim.Time
	head int
}

func (q *arrivalQueue) len() int { return len(q.buf) - q.head }

//wlanvet:hotpath
func (q *arrivalQueue) push(t sim.Time) {
	//wlanvet:allow amortised: the backing array grows to the queue high-water mark, then push reuses capacity (pop compacts in place)
	q.buf = append(q.buf, t)
}

//wlanvet:hotpath
func (q *arrivalQueue) pop() sim.Time {
	v := q.buf[q.head]
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf = q.buf[:0]
		q.head = 0
	case q.head > 64 && q.head*2 >= len(q.buf):
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v
}

// station is the per-node simulation state. All mutation happens inside
// scheduler events, so no locking is needed.
type station struct {
	id     int
	policy mac.Policy
	// observer and memoryless cache the policy's optional-interface
	// shape once at init: the busy/idle transition path runs for every
	// station on every frame, and repeating the type assertions there
	// costs more than the transitions themselves.
	observer   mac.MediumObserver
	memoryless bool
	rng        *sim.RNG
	state      stationState

	// busyCount is the number of in-air transmissions this station
	// senses (neighbouring stations' data frames plus AP frames). The
	// medium is idle for this station iff busyCount == 0.
	busyCount int
	// idleSince is when busyCount last dropped to zero (valid while
	// busyCount == 0).
	idleSince sim.Time

	// remaining is the number of backoff slots still to serve.
	remaining int
	// runStart anchors the current countdown: the station transmits at
	// runStart + remaining·σ unless the medium goes busy first. Valid
	// while armed.
	runStart sim.Time
	// armed marks a virtually scheduled transmission attempt: the
	// station is due to transmit at due, but holds no scheduler event of
	// its own. Only the globally earliest armed contender has a live
	// event (Simulator.armedSt); everyone else is woken lazily when the
	// candidate minimum moves (see Simulator.rearm). vseq is the
	// scheduler sequence number reserved at arm time, which preserves
	// the exact same-instant FIFO order eager per-station scheduling
	// would have produced.
	armed bool
	due   sim.Time
	vseq  uint64

	// senseIdleOpen/senseIdleStart track the idle gap this station
	// observes between sensed transmissions (IdleSense's input).
	senseIdleOpen  bool
	senseIdleStart sim.Time

	seq     uint16
	retries uint8

	// Traffic source state. arr describes the arrival process (zero
	// value: saturated); arrivalRNG is a dedicated stream (sim.ArrivalStream)
	// so arrival draws never perturb backoff draws; queue holds the arrival stamps
	// of waiting packets (unsaturated only — a saturated backlog is
	// conceptually infinite and tracks only holSince).
	arr         traffic.Spec
	arrivalRNG  *sim.RNG
	queue       arrivalQueue
	nextArrival sim.Ref
	phaseRef    sim.Ref
	trafficOn   bool

	// holSince is when the current head-of-line packet became eligible
	// for service (saturated sources: the end of the previous delivery),
	// the epoch for MAC access-delay measurement.
	holSince sim.Time

	// Per-station latency/jitter accumulators: lastLat is the previous
	// delivered packet's latency (for the mean |ΔL| jitter estimator).
	lastLat  sim.Duration
	latSum   sim.Duration
	latCount int64

	// Statistics.
	successes, failures int64
	bitsDelivered       int64
	arrivals, drops     int64

	// deferredStop requests deactivation at the end of the current
	// transmission attempt.
	deferredStop bool
}

// StationStats is the per-station slice of a Result.
type StationStats struct {
	// Successes and Failures count transmission attempts by outcome.
	Successes, Failures int64
	// BitsDelivered is the payload successfully delivered to the AP.
	BitsDelivered int64
	// Throughput is BitsDelivered over the measured interval, bits/s.
	Throughput float64
	// Weight echoes the station's fairness weight when its policy is
	// weighted p-persistent CSMA, else 1.
	Weight float64
	// Arrivals and Drops count the station's offered packets and
	// queue-overflow losses (unsaturated traffic sources only).
	Arrivals, Drops int64
	// MeanLatency is the mean packet delay from arrival (saturated:
	// head-of-line instant) to ACK completion, 0 with no deliveries.
	MeanLatency sim.Duration
}

// attemptProbability reports the policy's current attempt probability if
// it exposes one, else 0.
func (s *station) attemptProbability() float64 {
	if r, ok := s.policy.(mac.AttemptReporter); ok {
		return r.AttemptProbability()
	}
	return 0
}
