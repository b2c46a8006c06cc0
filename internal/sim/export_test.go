package sim

import "math/rand/v2"

// Test-only views of scheduler, event and generator state.

// Pending returns the number of events in the queue, including lazily
// cancelled ones that have not yet been discarded.
func (s *Scheduler) Pending() int {
	n := len(s.heap.items)
	if s.next != nil {
		n++
	}
	if s.cand != nil {
		n++
	}
	return n
}

// PoolSize returns the number of recycled events currently in the free
// list.
func (s *Scheduler) PoolSize() int { return len(s.free) }

// Cancelled reports whether the event was cancelled and its heap slot has
// not yet been collected. Expired Refs report false.
func (r Ref) Cancelled() bool { return r.e != nil && r.e.gen == r.gen && r.e.dead }

// At returns the instant the event is scheduled for, or 0 if the Ref has
// expired.
func (r Ref) At() Time {
	if r.e != nil && r.e.gen == r.gen {
		return r.e.at
	}
	return 0
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return rand.New(&g.src).Int64() }
