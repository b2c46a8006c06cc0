package sim

import "fmt"

// Scheduler is the discrete-event loop: a clock plus a priority queue of
// events. The zero value is ready to use with the clock at time zero.
//
// The scheduler recycles Event objects through an internal free list, so
// steady-state scheduling performs no heap allocations: AtArg/AfterArg
// reuse a pooled event, and Step returns it to the pool once the callback
// has been dispatched. Callers interact with events only through
// generation-checked Refs (see Ref), which makes holding a handle past
// the event's lifetime safe. See DESIGN.md for the pooling and generation
// scheme.
//
// Scheduler is not safe for concurrent use; a simulation is a single
// logical thread of control. Run simulations in parallel by creating one
// Scheduler per goroutine.
type Scheduler struct {
	now  Time
	heap eventHeap
	// next is a one-event fast slot holding the minimum queued event
	// (by (at, seq); the candidate below stays outside), or nil.
	// Discrete-event hot loops schedule the imminent event constantly —
	// a frame's completion, the SIFS chain to its ACK — and the slot
	// absorbs those push-then-pop-next cycles without touching the heap. The invariant "next precedes
	// every heap entry" is maintained on every enqueue, so dispatch
	// order is exactly the heap-only order.
	next *Event
	// cand is the out-of-heap candidate (SetCandidate), or nil: one
	// event the owner moves or withdraws in place, compared with the
	// queue minimum by (at, seq) at every dequeue, so moving it leaves
	// no cancelled entry behind in the heap.
	cand  *Event
	seq   uint64
	fired uint64
	free  []*Event // recycled events, LIFO for cache warmth

	// afterDispatch, when set, runs after every dispatched callback —
	// the hook lazy-wakeup engines use to re-establish their candidate
	// minimum exactly once per event, however many state transitions
	// the callback performed (see eventsim's rearm).
	afterDispatch func()
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of events in the queue, including lazily
// cancelled ones that have not yet been discarded.
func (s *Scheduler) Pending() int {
	n := s.heap.Len()
	if s.next != nil {
		n++
	}
	if s.cand != nil {
		n++
	}
	return n
}

// before reports whether a fires before b under the (at, seq) order.
func before(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// enqueue inserts a pending event, keeping the fast slot the global
// minimum.
func (s *Scheduler) enqueue(e *Event) {
	switch {
	case s.next == nil:
		if top := s.heap.peek(); top == nil || before(e, top) {
			s.next = e
			return
		}
	case before(e, s.next):
		s.heap.push(s.next)
		s.next = e
		return
	}
	s.heap.push(e)
}

// dequeue removes and returns the earliest pending event, or nil.
func (s *Scheduler) dequeue() *Event {
	if c := s.cand; c != nil {
		if m := s.queueMin(); m == nil || before(c, m) {
			s.cand = nil
			return c
		}
	}
	if e := s.next; e != nil {
		s.next = nil
		return e
	}
	return s.heap.pop()
}

// queueMin returns the earliest queued event, candidate aside.
func (s *Scheduler) queueMin() *Event {
	if s.next != nil {
		return s.next
	}
	return s.heap.peek()
}

// peekMin returns the earliest pending event without removing it.
func (s *Scheduler) peekMin() *Event {
	m := s.queueMin()
	if c := s.cand; c != nil && (m == nil || before(c, m)) {
		return c
	}
	return m
}

// peekLive returns the earliest live pending event, discarding
// cancelled ones from the front of the queue. RunUntil must bound on a
// live event: a cancelled minimum inside the window followed by a live
// event beyond it would otherwise make Step fire past the bound.
func (s *Scheduler) peekLive() *Event {
	for {
		e := s.peekMin()
		if e == nil || !e.dead {
			return e
		}
		s.release(s.dequeue())
	}
}

// PoolSize returns the number of recycled events currently in the free
// list. Exposed for allocation-regression tests.
func (s *Scheduler) PoolSize() int { return len(s.free) }

// alloc takes an event from the free list, falling back to the heap
// only while the pool is still warming up.
func (s *Scheduler) alloc() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return &Event{}
}

// release recycles a popped event. Bumping the generation expires every
// outstanding Ref before the event can be reused.
func (s *Scheduler) release(e *Event) {
	e.gen++
	e.fn, e.arg = nil, nil
	e.dead = false
	// Amortised: the free list grows to the live-event high-water mark during warm-up, then every append reuses capacity
	s.free = append(s.free, e)
}

// AtArg schedules fn(arg) to run at instant t. Scheduling in the past
// panics: a causality violation is always a programming error in the
// caller. The call is allocation-free when fn is a pre-bound function
// value and arg is a pointer: neither boxes a fresh closure.
func (s *Scheduler) AtArg(t Time, fn func(any), arg any) Ref {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	e := s.alloc()
	e.at, e.seq = t, s.seq
	e.fn, e.arg = fn, arg
	s.seq++
	s.enqueue(e)
	return Ref{e: e, gen: e.gen}
}

// AfterArg schedules fn(arg) to run d after the current time.
func (s *Scheduler) AfterArg(d Duration, fn func(any), arg any) Ref {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.AtArg(s.now.Add(d), fn, arg)
}

// TakeSeq consumes and returns the next event sequence number without
// scheduling anything. It exists for lazy-wakeup schemes (see
// eventsim's contention arming): a caller can reserve the FIFO
// tie-break position an event *would* have received if scheduled now,
// defer the actual scheduling, and later submit it as the candidate
// with its reserved position — so replacing eager scheduling with lazy
// scheduling cannot reorder same-instant ties.
func (s *Scheduler) TakeSeq() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// SetCandidate makes fn(arg) at instant t the scheduler's candidate,
// replacing any previous one. seq is a sequence number reserved via
// TakeSeq: the candidate fires when it is the earliest pending event
// under the (at, seq) order, exactly as if it had been scheduled at
// reservation time. It lives outside the queue, so moving it costs no
// heap traffic and leaves no cancelled entry behind. The candidate is
// withdrawn by ClearCandidate, by firing or by Reset.
func (s *Scheduler) SetCandidate(t Time, seq uint64, fn func(any), arg any) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling candidate at %v before now %v", t, s.now))
	}
	c := s.cand
	if c == nil {
		c = s.alloc()
		s.cand = c
	}
	c.at, c.seq = t, seq
	c.fn, c.arg = fn, arg
}

// ClearCandidate withdraws the candidate, if any.
func (s *Scheduler) ClearCandidate() {
	if c := s.cand; c != nil {
		s.cand = nil
		s.release(c)
	}
}

// Reset returns the scheduler to its initial state — clock at zero,
// empty queue, no candidate, sequence and fired counters at zero —
// while keeping the event free list, so a reused scheduler schedules
// without re-warming its pool. Pending events are recycled; their
// generation bump expires any outstanding Refs. A reset scheduler is indistinguishable from a
// fresh one to every caller except PoolSize.
func (s *Scheduler) Reset() {
	for {
		e := s.dequeue()
		if e == nil {
			break
		}
		s.release(e)
	}
	s.now, s.seq, s.fired = 0, 0, 0
}

// SetAfterDispatch installs fn to run after every dispatched event
// callback (nil uninstalls). The hook may schedule events; it must not
// call Step/RunUntil itself. Reset leaves the hook installed — it is
// configuration, not run state.
func (s *Scheduler) SetAfterDispatch(fn func()) { s.afterDispatch = fn }

// Step executes the single next live event and returns true, or returns
// false when the queue holds no live events.
func (s *Scheduler) Step() bool {
	for {
		e := s.dequeue()
		if e == nil {
			return false
		}
		if e.dead {
			s.release(e)
			continue
		}
		s.now = e.at
		s.fired++
		// Copy the dispatch fields and recycle before invoking, so the
		// callback's own scheduling can reuse this very event.
		fn, arg := e.fn, e.arg
		s.release(e)
		fn(arg)
		if s.afterDispatch != nil {
			s.afterDispatch()
		}
		return true
	}
}

// RunUntil executes events with timestamps ≤ end, then advances the clock
// to exactly end. Events scheduled after end remain queued.
func (s *Scheduler) RunUntil(end Time) {
	for {
		e := s.peekLive()
		if e == nil || e.at > end {
			break
		}
		s.Step()
	}
	if s.now < end {
		s.now = end
	}
}
