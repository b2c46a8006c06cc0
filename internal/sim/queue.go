package sim

// Event is a pooled scheduler entry. Events are owned by the Scheduler's
// free list and recycled after they fire or their cancellation is
// collected, so callers never hold *Event directly — they hold a Ref,
// which carries the generation stamp that makes use-after-recycle safe.
type Event struct {
	at  Time
	seq uint64 // FIFO tie-breaker for equal timestamps

	// fn(arg) is the dispatch. The explicit argument lets callers
	// schedule without allocating a closure per event (a pre-bound func
	// value plus a pointer boxed in an interface is allocation-free; a
	// capturing closure is not).
	fn  func(any)
	arg any

	dead bool   // set via Ref.Cancel; popped dead events are recycled
	gen  uint32 // incremented on every recycle; Refs must match to act
}

// Ref is a generation-checked handle to a scheduled event. The zero Ref
// is inert: Cancel is a no-op and Active reports false. A Ref outlives
// its event harmlessly — once the event fires or its cancelled slot is
// recycled, the generation stamp no longer matches and every method
// treats the Ref as expired.
type Ref struct {
	e   *Event
	gen uint32
}

// Active reports whether the event is still pending: scheduled, not
// fired, not cancelled.
func (r Ref) Active() bool { return r.e != nil && r.e.gen == r.gen && !r.e.dead }

// Cancel marks the event so it will not fire. Cancelling an expired Ref
// (fired, recycled, or zero) is a no-op — the generation check guarantees
// a stale handle can never kill an unrelated recycled event. Cancellation
// is lazy: the entry stays in the heap and is recycled when popped.
func (r Ref) Cancel() {
	if r.e != nil && r.e.gen == r.gen {
		r.e.dead = true
	}
}

// eventHeap is a four-ary min-heap ordered by (at, seq). Four-ary halves
// the tree depth of a binary heap, so sift-down touches half as many
// cache lines per pop; the extra sibling comparisons are cheap because
// all four children share at most two cache lines. It implements the
// container/heap operations directly to avoid interface boxing on the
// hot path.
type eventHeap struct {
	items []*Event
}

func (h *eventHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
}

func (h *eventHeap) push(e *Event) {
	// Amortised: the backing array grows to the pending-event high-water mark, then every push reuses capacity
	h.items = append(h.items, e)
	h.up(len(h.items) - 1)
}

func (h *eventHeap) pop() *Event {
	n := len(h.items)
	if n == 0 {
		return nil
	}
	top := h.items[0]
	h.swap(0, n-1)
	h.items[n-1] = nil // drop the reference; the scheduler pools the event
	h.items = h.items[:n-1]
	if len(h.items) > 0 {
		h.down(0)
	}
	return top
}

func (h *eventHeap) peek() *Event {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

func (h *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) >> 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *eventHeap) down(i int) {
	n := len(h.items)
	for {
		first := i<<2 + 1
		if first >= n {
			return
		}
		smallest := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, smallest) {
				smallest = c
			}
		}
		if !h.less(smallest, i) {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
