package eventsim

import "math/bits"

// Lazy contention wake-ups.
//
// A contending station on an idle medium is "armed": it has a due
// instant (runStart + remaining·σ) and a reserved scheduler sequence
// number, but no scheduler event of its own. Exactly one event stands
// for the whole contention system — the armed station with the
// smallest (due, vseq), held in the scheduler's out-of-heap candidate
// slot (sim.Scheduler.SetCandidate) and tracked in candSt. A busy
// crossing therefore costs at most one candidate withdrawal, and
// moving the candidate costs no heap traffic at all, instead of the
// per-neighbour arm/cancel storm of eager scheduling.
//
// Bit-identity with eager scheduling is structural, not statistical:
//   - arming reserves a sequence number via TakeSeq at exactly the call
//     sites where the eager code scheduled, so every event in the run —
//     contention or not — carries the same (time, seq) key as before;
//   - the candidate carries its owner's reserved sequence number and
//     the scheduler compares it with the queue minimum by (at, seq), so
//     same-instant ties (a due attempt racing a frame completion, a
//     beacon, an ACK) resolve exactly as they did when every station
//     held its own event;
//   - an arm that beats the candidate takes it over on the spot, and a
//     withdrawn candidate is re-established (rearm) before the event
//     callback that withdrew it returns, so the earliest armed attempt
//     is always the candidate and fires at its exact due instant.
// EventsFired is preserved too: the events that fire are precisely the
// attempts that would have fired eagerly, and lazy arming never fires
// spuriously.

// disarm retracts st's virtual attempt (frozen or deactivated). When st
// holds the candidate, withdraw it and mark the system dirty so the
// minimum is re-established after the current event.
func (s *Simulator) disarm(st *station) {
	s.ready.clear(st.id)
	if s.candSt == st {
		s.sched.ClearCandidate()
		s.candSt = nil
		s.contDirty = true
	}
}

// rearm re-establishes the candidate on the armed station with the
// minimum (due, vseq) once the previous one was withdrawn. It runs as
// the scheduler's after-dispatch hook — once per event, after the
// callback's whole batch of transitions — and is O(armed stations)
// when dirty and O(1) otherwise.
func (s *Simulator) rearm() {
	if !s.contDirty {
		return
	}
	s.contDirty = false
	// Scan the flat (due, vseq) mirrors rather than the station structs:
	// a linear walk over two arrays stays in cache where pointer chasing
	// would not.
	best := -1
	for w, word := range s.ready.words {
		base := w << 6
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			if best < 0 || s.dues[i] < s.dues[best] ||
				(s.dues[i] == s.dues[best] && s.vseqs[i] < s.vseqs[best]) {
				best = i
			}
		}
	}
	if best < 0 {
		return
	}
	st := s.stations[best]
	s.candSt = st
	s.sched.SetCandidate(s.dues[best], s.vseqs[best], s.txBeginFn, st)
}
