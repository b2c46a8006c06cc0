package slotsim

import "math/bits"

// backoffTracker is a calendar-queue view of every backlogged station's
// backoff counter: stations sit in ring buckets keyed by their absolute
// expiry slot, an occupancy bitmap finds the next non-empty bucket with
// word scans, and advancing the global slot clock is a base-offset bump
// instead of a decrement of every counter. It replaces the slot loop's
// two O(N)-per-busy-period passes — the expired-counter scan and the
// idle-jump decrement — with O(1) amortised bucket operations, which is
// what keeps large-N Bianchi-regime sweeps from going quadratic-ish.
//
// Buckets are intrusive doubly-linked lists over per-station link
// arrays (a station occupies at most one bucket), so steady-state
// operation allocates nothing — the slot loop's zero-alloc guardrail
// covers the tracker too. Counters at least trackerSpan slots out
// (possible for clamped geometric tails) wait in an overflow list keyed
// by absolute expiry and migrate into the ring as the base approaches.
//
// All positions derive from the same counter bookkeeping as the
// pre-tracker scanning code, so attacker sets and idle-jump lengths —
// and hence every RNG draw — are bit-identical to it (the engine
// fingerprints pin this).
type backoffTracker struct {
	// base is the absolute slot index of ring position baseIdx: a
	// station with absolute expiry e sits in ring bucket
	// (baseIdx + (e - base)) & trackerMask while e - base < trackerSpan.
	base    int64
	baseIdx int

	head     []int32 // per ring slot: first station id, -1 when empty
	next     []int32 // per station: forward link, -1 at tail
	prev     []int32 // per station: back link, -1 at head
	occupied []uint64
	count    int // stations in the ring

	// overflow holds (station, absoluteExpiry) pairs ≥ trackerSpan
	// slots out. overflowPos[id] is the station's index in overflow (-1
	// when ringed), making removal O(1) — without it, a small-p
	// memoryless population living mostly in overflow would turn the
	// per-busy-period resume pass quadratic. overflowMin caches the
	// smallest expiry; overflowMinStale defers its O(len) recomputation
	// to the next minCounter/advance that needs it, so removing a
	// non-minimal entry stays O(1) too.
	overflow         []overflowEntry
	overflowPos      []int32
	overflowMin      int64
	overflowMinStale bool
}

type overflowEntry struct {
	id     int32
	expiry int64
}

const (
	// trackerSpan bounds the ring horizon in slots. It is sized for the
	// scale tier: contention windows there grow with the population
	// (W ≈ n, up to 100k), and a window beyond the ring horizon would
	// park the *whole* population in the overflow list, whose migration
	// pass is O(len) — the quadratic-ish behaviour the ring exists to
	// avoid. At 2¹⁷ slots every counter up to 131k stays in-ring and
	// only unbounded geometric tails overflow. The ring costs 512 KB
	// per simulator.
	trackerSpan = 1 << 17
	trackerMask = trackerSpan - 1
)

// newBackoffTracker returns an empty tracker for n stations.
func newBackoffTracker(n int) backoffTracker {
	t := backoffTracker{
		head:        make([]int32, trackerSpan),
		next:        make([]int32, n),
		prev:        make([]int32, n),
		occupied:    make([]uint64, trackerSpan/64),
		overflowPos: make([]int32, n),
	}
	for i := range t.head {
		t.head[i] = -1
	}
	for i := range t.overflowPos {
		t.overflowPos[i] = -1
	}
	return t
}

// insert registers station id with the given relative counter (slots
// until expiry, ≥ 0). The station must not currently be tracked.
func (t *backoffTracker) insert(id int, counter int) {
	if counter >= trackerSpan {
		e := t.base + int64(counter)
		if len(t.overflow) == 0 || e < t.overflowMin {
			t.overflowMin = e
		}
		t.overflowPos[id] = int32(len(t.overflow))
		// Amortised: overflow grows to its high-water mark (rare clamped geometric tails)
		t.overflow = append(t.overflow, overflowEntry{int32(id), e})
		return
	}
	t.link(id, (t.baseIdx+counter)&trackerMask)
}

// link prepends station id to the ring bucket at slot.
func (t *backoffTracker) link(id, slot int) {
	h := t.head[slot]
	t.next[id], t.prev[id] = h, -1
	if h >= 0 {
		t.prev[h] = int32(id)
	}
	t.head[slot] = int32(id)
	t.occupied[slot>>6] |= 1 << (uint(slot) & 63)
	t.count++
}

// remove deletes station id, whose current relative counter is given.
// The id must be present. The counter is taken in int64 — it is an
// expiry delta, and overflow entries sit up to billions of slots out
// (clamped geometric tails), the exact magnitude that wrapped negative
// through int in the PR 7 minCounter bug.
func (t *backoffTracker) remove(id int, counter int64) {
	if counter >= trackerSpan {
		i := t.overflowPos[id]
		if i < 0 {
			panic("slotsim: tracker overflow entry missing")
		}
		removed := t.overflow[i]
		last := len(t.overflow) - 1
		t.overflow[i] = t.overflow[last]
		t.overflowPos[t.overflow[i].id] = i
		t.overflow = t.overflow[:last]
		t.overflowPos[id] = -1
		if removed.expiry == t.overflowMin {
			t.overflowMinStale = true
		}
		return
	}
	//wlanvet:allow guarded: counter < trackerSpan (2¹⁷) on this branch, so the conversion cannot truncate
	slot := (t.baseIdx + int(counter)) & trackerMask
	p, n := t.prev[id], t.next[id]
	if p >= 0 {
		t.next[p] = n
	} else {
		t.head[slot] = n
		if n < 0 {
			t.occupied[slot>>6] &^= 1 << (uint(slot) & 63)
		}
	}
	if n >= 0 {
		t.prev[n] = p
	}
	t.count--
}

func (t *backoffTracker) recomputeOverflowMin() {
	t.overflowMinStale = false
	t.overflowMin = 0
	for i, e := range t.overflow {
		if i == 0 || e.expiry < t.overflowMin {
			t.overflowMin = e.expiry
		}
	}
}

// currentOverflowMin returns the smallest overflow expiry, refreshing
// the lazy cache when a removal invalidated it.
func (t *backoffTracker) currentOverflowMin() int64 {
	if t.overflowMinStale {
		t.recomputeOverflowMin()
	}
	return t.overflowMin
}

// takeExpired removes and appends to dst the ids whose counters have
// reached zero (the bucket at the base slot).
func (t *backoffTracker) takeExpired(dst []int) []int {
	slot := t.baseIdx
	for id := t.head[slot]; id >= 0; id = t.next[id] {
		// Amortised: dst is the caller's reused attacker scratch slice, grown once to the population high-water mark
		dst = append(dst, int(id))
		t.count--
	}
	if t.head[slot] >= 0 {
		t.head[slot] = -1
		t.occupied[slot>>6] &^= 1 << (uint(slot) & 63)
	}
	return dst
}

// minCounter returns the smallest relative counter over every tracked
// station, or maxInt when the tracker is empty. Overflow deltas are
// compared in int64: an expiry can sit billions of slots out (clamped
// geometric tails), and truncating the delta through int would wrap
// negative on 32-bit platforms and stall the idle jump. The result is
// clamped to maxInt on conversion; callers cap the jump at the window
// and run-end boundaries anyway.
func (t *backoffTracker) minCounter() int {
	const maxInt = int(^uint(0) >> 1)
	best := int64(maxInt)
	if t.count > 0 {
		if d, ok := t.scan(); ok {
			best = int64(d)
		}
	}
	if len(t.overflow) > 0 {
		if d := t.currentOverflowMin() - t.base; d < best {
			best = d
		}
	}
	if best > int64(maxInt) {
		return maxInt
	}
	//wlanvet:allow guarded: best ≤ maxInt after the clamp above — the clamp IS the PR 7 minCounter fix
	return int(best)
}

// scan finds the distance in slots from the base to the first occupied
// ring slot, wrapping around the ring.
func (t *backoffTracker) scan() (int, bool) {
	w := t.baseIdx >> 6
	off := uint(t.baseIdx) & 63
	if word := t.occupied[w] >> off << off; word != 0 {
		slot := w<<6 + bits.TrailingZeros64(word)
		return (slot - t.baseIdx + trackerSpan) & trackerMask, true
	}
	n := len(t.occupied)
	for i := 1; i <= n; i++ {
		if word := t.occupied[(w+i)%n]; word != 0 {
			slot := ((w+i)%n)<<6 + bits.TrailingZeros64(word)
			return (slot - t.baseIdx + trackerSpan) & trackerMask, true
		}
	}
	return 0, false
}

// advance moves the clock forward by jump slots (jump must not exceed
// any tracked counter), migrating overflow entries that now fall inside
// the ring horizon.
func (t *backoffTracker) advance(jump int) {
	t.base += int64(jump)
	t.baseIdx = (t.baseIdx + jump) & trackerMask
	if len(t.overflow) == 0 || t.currentOverflowMin()-t.base >= trackerSpan {
		return
	}
	kept := t.overflow[:0]
	for _, e := range t.overflow {
		if d := e.expiry - t.base; d < trackerSpan {
			// d ≥ 0 because jump never exceeds the global minimum.
			t.overflowPos[e.id] = -1
			//wlanvet:allow guarded: d < trackerSpan (2¹⁷) on this branch, so the conversion cannot truncate
			t.link(int(e.id), (t.baseIdx+int(d))&trackerMask)
		} else {
			t.overflowPos[e.id] = int32(len(kept))
			// Amortised: kept compacts in place over t.overflow's own backing array, never growing it
			kept = append(kept, e)
		}
	}
	t.overflow = kept
	t.recomputeOverflowMin()
}
