package eventsim

import (
	"math/bits"

	"repro/internal/topo"
)

// Word-parallel carrier sense.
//
// A station senses a busy medium iff its carrier-sense row meets a
// station frame in the air, the AP is sending, or a NAV holds it. The
// busy set caches that predicate for every station, one bit each, and
// each change of the air — a frame, an AP frame or a NAV starting or
// ending — updates it a 64-bit word at a time. Only the stations whose
// bit flips run per-station code (crossBusy, crossIdle), always in
// ascending id order: their policy draws and reserved sequence numbers
// are consumed in that order, which the engine fingerprints pin.

// bitset is a fixed-capacity bitmap over station ids. One word covers
// the common N ≤ 64 case; larger topologies use more words. The zero
// value is unusable — size with grow first.
type bitset struct {
	words []uint64
}

// grow (re)sizes the bitset for n ids and clears it.
func (b *bitset) grow(n int) {
	w := (n + 63) >> 6
	if cap(b.words) < w {
		b.words = make([]uint64, w)
		return
	}
	b.words = b.words[:w]
	for i := range b.words {
		b.words[i] = 0
	}
}

func (b *bitset) set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

func (b *bitset) clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

func (b *bitset) has(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// senseRows holds every station's carrier-sense row — the stations
// within sensing range of it — as its non-zero 64-bit words, derived
// from the topology's ascending neighbour lists. Sensing is a distance
// predicate, so a row is both the set of stations a transmitter makes
// busy and the set of transmitters a station hears. A row has at most
// one block per neighbour, so the blocks fit the same adjacency budget
// as the lists: N ≤ 64 gives one word per row, and sparse layouts stay
// O(edges).
type senseRows struct {
	off  []int32  // station i's blocks are [off[i], off[i+1])
	word []int32  // word index of each block, ascending within a row
	bits []uint64 // the block's member bits
}

// build derives the rows of t, reusing the arrays' capacity.
func (r *senseRows) build(t *topo.Topology) {
	r.off, r.word, r.bits = r.off[:0], r.word[:0], r.bits[:0]
	for i := 0; i < t.N(); i++ {
		start := int32(len(r.word))
		r.off = append(r.off, start)
		for _, j := range t.SensedBy(i) {
			w, bit := j>>6, uint64(1)<<(uint(j)&63)
			if k := len(r.word) - 1; k >= int(start) && r.word[k] == w {
				r.bits[k] |= bit
				continue
			}
			r.word = append(r.word, w)
			r.bits = append(r.bits, bit)
		}
	}
	r.off = append(r.off, int32(len(r.word)))
}

// busyRow marks busy every station that senses station j's frame.
func (s *Simulator) busyRow(j int) {
	r := &s.rows
	for b := r.off[j]; b < r.off[j+1]; b++ {
		s.busyWord(int(r.word[b]), r.bits[b])
	}
}

// busyAll marks every station busy: the AP is sending.
func (s *Simulator) busyAll() {
	for w, m := range s.all.words {
		s.busyWord(w, m)
	}
}

// busyWord adds the stations of mask m in word w to the busy set and
// runs crossBusy for each that was idle, in ascending id order.
func (s *Simulator) busyWord(w int, m uint64) {
	x := m &^ s.busy.words[w]
	s.busy.words[w] |= m
	for x != 0 {
		i := w<<6 + bits.TrailingZeros64(x)
		x &= x - 1
		s.crossBusy(s.stations[i])
	}
}

// idleRow settles the stations that sensed station j's frame, which
// has just left the air (and s.active). When the AP will answer the
// frame after SIFS (answered), the stations stay busy through the gap
// instead: see skipGap.
func (s *Simulator) idleRow(j int, answered bool) {
	if s.apTx {
		return // the AP's frame keeps every station busy
	}
	r := &s.rows
	sc := s.scratch.words
	for b := r.off[j]; b < r.off[j+1]; b++ {
		w := r.word[b]
		sc[w] = r.bits[b] &^ s.nav.words[w]
	}
	s.uncover()
	for b := r.off[j]; b < r.off[j+1]; b++ {
		w := r.word[b]
		x := sc[w]
		sc[w] = 0
		if answered {
			s.skipGap(int(w), x)
		} else {
			s.idleWord(int(w), x)
		}
	}
}

// skipGap stands in for an idle window the stations of mask x in word w
// cannot use: the SIFS before the AP answers a frame, or the instant a
// CTS ends and its NAV begins. Their busy bits stay set. Crossing idle
// and then busy again, before DIFS and so with no slot elapsed, would
// only have armed and disarmed them, closed a gap IdleSense ignores
// (shorter than DIFS), and had each memoryless contender redraw its
// backoff. Sequence numbers only order events, so the skipped arms
// change no dispatch order. The redraw is kept, and discarded: it
// advances the station's stream exactly as the crossing would have.
func (s *Simulator) skipGap(w int, x uint64) {
	for x != 0 {
		st := s.stations[w<<6+bits.TrailingZeros64(x)]
		x &= x - 1
		if st.memoryless && st.state == stateContending && !s.ready.has(st.id) {
			st.policy.NextBackoff(&st.rng)
		}
	}
}

// idleScratch settles the candidates left in s.scratch by an AP frame
// or a NAV ending, then leaves the scratch all-zero again. Candidates
// in held (nil: none) stay busy and skip the idle window (skipGap).
func (s *Simulator) idleScratch(held []uint64) {
	s.uncover()
	sc := s.scratch.words
	for w, x := range sc {
		if x != 0 {
			sc[w] = 0
			if held != nil {
				s.skipGap(w, x&held[w])
				x &^= held[w]
			}
			s.idleWord(w, x)
		}
	}
}

// idleAll settles every station once the AP's frame has left the air.
func (s *Simulator) idleAll() {
	s.idleCandidates()
	s.idleScratch(nil)
}

// idleCandidates puts every busy station that no NAV holds into
// s.scratch.
func (s *Simulator) idleCandidates() {
	for w, m := range s.busy.words {
		s.scratch.words[w] = m &^ s.nav.words[w]
	}
}

// uncover drops from the idle candidates in s.scratch every station
// that still senses a frame in the air.
func (s *Simulator) uncover() {
	r := &s.rows
	sc := s.scratch.words
	for _, rec := range s.active {
		j := rec.st.id
		for b := r.off[j]; b < r.off[j+1]; b++ {
			sc[r.word[b]] &^= r.bits[b]
		}
	}
}

// idleWord removes the stations of mask x in word w from the busy set
// and runs crossIdle for each, in ascending id order.
func (s *Simulator) idleWord(w int, x uint64) {
	s.busy.words[w] &^= x
	for x != 0 {
		i := w<<6 + bits.TrailingZeros64(x)
		x &= x - 1
		s.crossIdle(s.stations[i])
	}
}

// navHold is one CTS's reservation: the stations whose NAV it set.
// Holds are pooled, and released through AfterArg, so the RTS/CTS
// exchange allocates nothing once warm.
type navHold struct {
	mask bitset
}

// holdNAV sets the NAV of every station except target and those with a
// frame in the air (half duplex: they cannot have decoded the CTS),
// and returns the hold for navEnd to release.
func (s *Simulator) holdNAV(target *station) *navHold {
	var h *navHold
	if n := len(s.navPool); n > 0 {
		h = s.navPool[n-1]
		s.navPool = s.navPool[:n-1]
	} else {
		h = &navHold{}
	}
	h.mask.grow(len(s.stations))
	copy(h.mask.words, s.all.words)
	h.mask.clear(target.id)
	for _, rec := range s.active {
		h.mask.clear(rec.st.id)
	}
	for w, m := range h.mask.words {
		s.nav.words[w] |= m
		s.busyWord(w, m)
	}
	// Amortised: the live list grows to the overlapping-NAV high-water mark, then every append reuses capacity
	s.navHolds = append(s.navHolds, h)
	return h
}

// navEnd releases hold h: its stations go idle unless another hold, an
// AP frame or a frame they sense keeps them busy.
func (s *Simulator) navEnd(h *navHold) {
	for i, x := range s.navHolds {
		if x == h {
			// In place: the removal compacts s.navHolds over its own backing array, never growing it
			s.navHolds = append(s.navHolds[:i], s.navHolds[i+1:]...)
			break
		}
	}
	for w := range s.nav.words {
		var m uint64
		for _, o := range s.navHolds {
			m |= o.mask.words[w]
		}
		s.nav.words[w] = m
	}
	if !s.apTx {
		for w, m := range h.mask.words {
			s.scratch.words[w] = m &^ s.nav.words[w]
		}
		s.idleScratch(nil)
	}
	// Amortised: the pool grows to the overlapping-NAV high-water mark, then every append reuses capacity
	s.navPool = append(s.navPool, h)
}
