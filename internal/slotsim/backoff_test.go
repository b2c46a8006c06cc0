package slotsim

import (
	"math/rand"
	"sort"
	"testing"
)

// naiveTracker is the reference model: a plain map of relative
// counters, decremented on advance — the semantics the pre-tracker
// scanning loop implemented directly.
type naiveTracker struct {
	counters map[int]int
}

func (n *naiveTracker) insert(id, c int) { n.counters[id] = c }
func (n *naiveTracker) remove(id int)    { delete(n.counters, id) }
func (n *naiveTracker) advance(jump int) {
	for id := range n.counters {
		n.counters[id] -= jump
	}
}
func (n *naiveTracker) expired() []int {
	var out []int
	for id, c := range n.counters {
		if c == 0 {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}
func (n *naiveTracker) min() int {
	best := int(^uint(0) >> 1)
	for _, c := range n.counters {
		if c < best {
			best = c
		}
	}
	return best
}

// TestBackoffTrackerDifferential drives the calendar-queue tracker and
// the naive counter model through tens of thousands of randomized
// operations — inserts spanning the ring AND the overflow horizon,
// removals (hitting the overflow swap-delete and the lazy min cache),
// expiry harvesting and large advances (hitting overflow→ring
// migration) — and requires identical attacker sets and minimum
// counters throughout. This is the committed guardrail for the
// overflow machinery, which the engine fingerprints (realistic p, small
// counters) barely reach.
func TestBackoffTrackerDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 48
	tr := newBackoffTracker(n)
	model := &naiveTracker{counters: map[int]int{}}
	relative := func(id int) int64 { return int64(model.counters[id]) }

	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // insert an untracked station
			id := rng.Intn(n)
			if _, ok := model.counters[id]; ok {
				continue
			}
			var c int
			switch rng.Intn(3) {
			case 0:
				c = rng.Intn(64) // dense ring traffic
			case 1:
				c = rng.Intn(trackerSpan) // whole ring
			default:
				c = trackerSpan + rng.Intn(3*trackerSpan) // overflow
			}
			tr.insert(id, c)
			model.insert(id, c)
		case op < 6: // remove a tracked station
			var ids []int
			for id := range model.counters {
				ids = append(ids, id)
			}
			if len(ids) == 0 {
				continue
			}
			sort.Ints(ids)
			id := ids[rng.Intn(len(ids))]
			tr.remove(id, relative(id))
			model.remove(id)
		case op < 8: // harvest expired
			got := tr.takeExpired(nil)
			sort.Ints(got)
			want := model.expired()
			if !equalInts(got, want) {
				t.Fatalf("step %d: expired %v, want %v", step, got, want)
			}
			for _, id := range want {
				model.remove(id)
			}
		default: // advance by up to the minimum
			m := tr.minCounter()
			if wm := model.min(); m != wm {
				t.Fatalf("step %d: minCounter %d, want %d", step, m, wm)
			}
			if m == 0 || m == int(^uint(0)>>1) {
				continue
			}
			jump := 1 + rng.Intn(m)
			tr.advance(jump)
			model.advance(jump)
		}
	}
	// Final agreement over everything still tracked.
	if m, wm := tr.minCounter(), model.min(); m != wm {
		t.Fatalf("final minCounter %d, want %d", m, wm)
	}
}

// TestMinCounterLargeOverflowExpiry pins the int64 overflow-delta
// arithmetic: a clamped geometric tail can park an expiry billions of
// slots out, and the delta to it must survive minCounter without being
// truncated through int (it wrapped negative on 32-bit platforms before
// the fix, stalling the idle jump). The relative delta is also exercised
// past 2³¹ against a ring entry, which must still win the comparison.
func TestMinCounterLargeOverflowExpiry(t *testing.T) {
	tr := newBackoffTracker(4)

	// Overflow-only: the delta IS the answer, even when it exceeds 2³¹.
	const far = int64(1) << 33
	maxInt := int(^uint(0) >> 1)
	farCounter := far
	if farCounter > int64(maxInt) {
		farCounter = int64(maxInt) // 32-bit: insert clamps at the API edge
	}
	tr.insert(0, int(farCounter))
	if got := int64(tr.minCounter()); got != farCounter {
		t.Fatalf("minCounter = %d, want the far overflow delta %d", got, farCounter)
	}

	// A ring entry must beat the far overflow expiry; a negative or
	// wrapped overflow delta would steal the minimum.
	tr.insert(1, 100)
	if got := tr.minCounter(); got != 100 {
		t.Fatalf("minCounter = %d with ring entry 100 + far overflow, want 100", got)
	}

	// After advancing past the ring entry's expiry, the harvested
	// minimum must fall back to the (still huge) overflow delta.
	tr.advance(100)
	tr.takeExpired(nil)
	if got := int64(tr.minCounter()); got != farCounter-100 {
		t.Fatalf("minCounter = %d after advance, want %d", got, farCounter-100)
	}

	// Empty tracker still reports maxInt.
	tr.remove(0, farCounter-100)
	if got := tr.minCounter(); got != maxInt {
		t.Fatalf("minCounter = %d on empty tracker, want maxInt", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
