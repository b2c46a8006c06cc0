package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// call runs a closure scheduled as the argument of AtArg or AfterArg.
// The tests schedule closures for brevity; the engines schedule
// callbacks bound once with pointer arguments.
func call(fn any) { fn.(func())() }

// drain dispatches events until the queue holds no live one.
func drain(s *Scheduler) {
	for s.Step() {
	}
}

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []Time
	times := []Time{500, 100, 300, 200, 400}
	for _, at := range times {
		at := at
		s.AtArg(at, call, func() { got = append(got, at) })
	}
	drain(s)
	want := append([]Time(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if s.Now() != 500 {
		t.Errorf("clock = %v, want 500", s.Now())
	}
}

func TestSchedulerFIFOForEqualTimestamps(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		s.AtArg(1000, call, func() { order = append(order, i) })
	}
	drain(s)
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; equal-timestamp events must fire FIFO", i, v)
		}
	}
}

func TestSchedulerAfterUsesCurrentTime(t *testing.T) {
	s := NewScheduler()
	var at Time
	s.AtArg(100, call, func() {
		s.AfterArg(50, call, func() { at = s.Now() })
	})
	drain(s)
	if at != 150 {
		t.Errorf("nested AfterArg fired at %v, want 150", at)
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.AtArg(10, call, func() { fired = true })
	e.Cancel()
	if !e.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	drain(s)
	if fired {
		t.Error("cancelled event fired")
	}
	// Cancelling again must be a no-op, including on the zero Ref.
	e.Cancel()
	var zero Ref
	zero.Cancel()
	if zero.Active() || zero.Cancelled() {
		t.Error("zero Ref reports Active or Cancelled")
	}
}

// A Ref held past its event's lifetime must expire rather than act on the
// recycled event: cancelling a stale handle may not kill whatever event
// now occupies the pooled slot.
func TestSchedulerStaleRefCannotCancelRecycledEvent(t *testing.T) {
	s := NewScheduler()
	fired := 0
	stale := s.AtArg(10, call, func() { fired++ })
	drain(s)
	if fired != 1 {
		t.Fatalf("first event fired %d times, want 1", fired)
	}
	if stale.Active() {
		t.Error("Ref still active after its event fired")
	}
	// The pool is LIFO, so this At reuses the event stale points at.
	next := s.AtArg(20, call, func() { fired++ })
	stale.Cancel()
	if !next.Active() {
		t.Fatal("stale Cancel killed the recycled event")
	}
	if stale.At() != 0 {
		t.Errorf("stale At() = %v, want 0", stale.At())
	}
	drain(s)
	if fired != 2 {
		t.Fatalf("fired %d events, want 2 (stale Cancel must be a no-op)", fired)
	}
}

// Events must return to the free list after firing or after a cancelled
// entry is collected, so steady-state scheduling reuses a bounded pool.
func TestSchedulerPoolRecycles(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 100; i++ {
		r := s.AtArg(Time(i), call, func() {})
		if i%3 == 0 {
			r.Cancel()
		}
	}
	drain(s)
	if got := s.PoolSize(); got != 100 {
		t.Errorf("pool holds %d events after drain, want 100", got)
	}
	for i := 0; i < 100; i++ {
		s.AtArg(s.Now().Add(1), call, func() {})
	}
	if got := s.PoolSize(); got != 0 {
		t.Errorf("pool holds %d events while 100 are pending, want 0", got)
	}
	drain(s)
}

func TestSchedulerCancelFromEarlierEvent(t *testing.T) {
	s := NewScheduler()
	fired := false
	later := s.AtArg(20, call, func() { fired = true })
	s.AtArg(10, call, func() { later.Cancel() })
	drain(s)
	if fired {
		t.Error("event cancelled by an earlier event still fired")
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.AtArg(at, call, func() { fired = append(fired, at) })
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 25 {
		t.Errorf("clock = %v, want 25 after RunUntil(25)", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %d events after second RunUntil, want 4", len(fired))
	}
	if s.Now() != 100 {
		t.Errorf("clock = %v, want 100", s.Now())
	}
}

// A cancelled event inside the window must not let RunUntil fire a live
// event beyond it: the bound is decided on the earliest LIVE event.
func TestSchedulerRunUntilSkipsDeadMinimum(t *testing.T) {
	s := NewScheduler()
	r := s.AtArg(10, call, func() { t.Error("cancelled event fired") })
	fired := false
	s.AtArg(20, call, func() { fired = true })
	r.Cancel()
	s.RunUntil(15)
	if fired {
		t.Error("RunUntil(15) fired the event at 20")
	}
	if s.Now() != 15 {
		t.Errorf("clock = %v, want 15", s.Now())
	}
	s.RunUntil(25)
	if !fired {
		t.Error("event at 20 never fired")
	}
}

func TestSchedulerPanicsOnPastEvent(t *testing.T) {
	s := NewScheduler()
	s.AtArg(100, call, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.AtArg(50, call, func() {})
	})
	drain(s)
}

func TestSchedulerPanicsOnNegativeDelay(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("AfterArg with negative delay did not panic")
		}
	}()
	s.AfterArg(-1, call, func() {})
}

// Property: for any sequence of insertion timestamps, pops are sorted and
// stable within equal timestamps.
func TestSchedulerOrderProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		s := NewScheduler()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, v := range raw {
			at := Time(v % 64) // force many timestamp collisions
			i := i
			s.AtArg(at, call, func() { fired = append(fired, rec{at, i}) })
		}
		drain(s)
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving random cancellations never breaks ordering and
// cancelled events never fire.
func TestSchedulerCancelProperty(t *testing.T) {
	prop := func(raw []uint16, cancelMask []bool) bool {
		s := NewScheduler()
		events := make([]Ref, len(raw))
		firedCancelled := false
		var last Time = -1
		for i, v := range raw {
			at := Time(v % 32)
			i := i
			events[i] = s.AtArg(at, call, func() {
				if i < len(cancelMask) && cancelMask[i] {
					firedCancelled = true
				}
				if at < last {
					firedCancelled = true // reuse flag as failure signal
				}
				last = at
			})
		}
		for i, e := range events {
			if i < len(cancelMask) && cancelMask[i] {
				e.Cancel()
			}
		}
		drain(s)
		return !firedCancelled
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapStress(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := NewScheduler()
	const n = 5000
	var fired int
	var last Time = -1
	var insert func(depth int)
	insert = func(depth int) {
		if depth == 0 {
			return
		}
		at := s.Now().Add(Duration(r.Intn(1000)))
		s.AtArg(at, call, func() {
			if s.Now() < last {
				t.Errorf("time went backwards: %v after %v", s.Now(), last)
			}
			last = s.Now()
			fired++
			if fired < n {
				insert(depth)
			}
		})
	}
	for i := 0; i < 8; i++ {
		insert(1)
	}
	drain(s)
	if fired < n {
		t.Fatalf("fired %d events, want ≥ %d", fired, n)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(9 * Microsecond)
	if t1 != Time(9000) {
		t.Errorf("Add: got %d, want 9000", t1)
	}
	if d := t1.Sub(t0); d != 9*Microsecond {
		t.Errorf("Sub: got %v, want 9µs", d)
	}
	if !t0.Before(t1) || t1.Before(t0) {
		t.Error("Before comparisons wrong")
	}
	if !t1.After(t0) || t0.After(t1) {
		t.Error("After comparisons wrong")
	}
	if s := Time(1500 * Millisecond).Seconds(); s != 1.5 {
		t.Errorf("Seconds: got %v, want 1.5", s)
	}
	if got := Time(Second).String(); got != "1.000000s" {
		t.Errorf("String: got %q", got)
	}
}

// order records the labels of fired callbacks.
type order struct{ got []string }

func (o *order) add(label string) func() {
	return func() { o.got = append(o.got, label) }
}

// addArg is a candidate callback; its arg is the label.
func (o *order) addArg(a any) { o.got = append(o.got, *a.(*string)) }

func (o *order) want(t *testing.T, want string) {
	t.Helper()
	if got := fmt.Sprint(o.got); got != want {
		t.Errorf("fired %s, want %s", got, want)
	}
}

func label(s string) *string { return &s }

// A candidate tied in time with the fast-slot event resolves by seq,
// exactly as two queued events would.
func TestSchedulerCandidateTiesFastSlot(t *testing.T) {
	for _, candFirst := range []bool{true, false} {
		s := NewScheduler()
		o := &order{}
		var seq uint64
		if candFirst {
			seq = s.TakeSeq()
		}
		s.AtArg(10, call, o.add("queued"))
		if !candFirst {
			seq = s.TakeSeq()
		}
		s.SetCandidate(10, seq, o.addArg, label("cand"))
		if s.next == nil || s.heap.Len() != 0 {
			t.Fatal("the queued event is not in the fast slot")
		}
		drain(s)
		if candFirst {
			o.want(t, "[cand queued]")
		} else {
			o.want(t, "[queued cand]")
		}
	}
}

// The same tie against an event in the heap proper.
func TestSchedulerCandidateTiesHeap(t *testing.T) {
	for _, candFirst := range []bool{true, false} {
		s := NewScheduler()
		o := &order{}
		var seq uint64
		if candFirst {
			seq = s.TakeSeq()
		}
		s.AtArg(10, call, o.add("heap"))
		if !candFirst {
			seq = s.TakeSeq()
		}
		s.AtArg(5, call, o.add("early")) // displaces the event at 10 into the heap
		s.SetCandidate(10, seq, o.addArg, label("cand"))
		if s.heap.Len() != 1 || s.heap.peek().at != 10 {
			t.Fatal("the event at 10 is not in the heap")
		}
		drain(s)
		if candFirst {
			o.want(t, "[early cand heap]")
		} else {
			o.want(t, "[early heap cand]")
		}
	}
}

func TestSchedulerCandidateRunUntil(t *testing.T) {
	s := NewScheduler()
	o := &order{}
	s.SetCandidate(30, s.TakeSeq(), o.addArg, label("cand"))
	s.RunUntil(29)
	o.want(t, "[]")
	if s.Now() != 29 || s.Pending() != 1 {
		t.Fatalf("after RunUntil(29): now %v, pending %d; want 29, 1", s.Now(), s.Pending())
	}
	s.RunUntil(30) // due exactly at the bound: fires
	o.want(t, "[cand]")
	if s.Now() != 30 || s.Pending() != 0 || s.Fired() != 1 {
		t.Fatalf("after RunUntil(30): now %v, pending %d, fired %d", s.Now(), s.Pending(), s.Fired())
	}
}

// Moving the candidate replaces it, and clearing withdraws it; neither
// leaves an entry behind.
func TestSchedulerCandidateMoveAndClear(t *testing.T) {
	s := NewScheduler()
	o := &order{}
	s.SetCandidate(20, s.TakeSeq(), o.addArg, label("first"))
	s.SetCandidate(15, s.TakeSeq(), o.addArg, label("moved"))
	if s.Pending() != 1 {
		t.Fatalf("pending %d after moving the candidate, want 1", s.Pending())
	}
	drain(s)
	o.want(t, "[moved]")
	s.SetCandidate(40, s.TakeSeq(), o.addArg, label("withdrawn"))
	s.ClearCandidate()
	s.ClearCandidate() // no candidate: a no-op
	if s.Pending() != 0 || s.Step() {
		t.Fatal("a cleared candidate is still pending")
	}
	o.want(t, "[moved]")
}

func TestSchedulerResetDropsCandidate(t *testing.T) {
	s := NewScheduler()
	s.SetCandidate(10, s.TakeSeq(), func(any) { t.Error("candidate fired after Reset") }, nil)
	pool := s.PoolSize()
	s.Reset()
	if s.Pending() != 0 || s.PoolSize() != pool+1 {
		t.Fatalf("after Reset: pending %d, pool %d; want 0, %d", s.Pending(), s.PoolSize(), pool+1)
	}
	drain(s)
}

func TestSchedulerCandidatePanicsInPast(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Error("a candidate before now did not panic")
		}
	}()
	s.SetCandidate(5, s.TakeSeq(), func(any) {}, nil)
}
