package svc

import (
	"fmt"
	"slices"
	"time"
)

// LeaseState is one node of the lease lifecycle:
//
//	granted ──heartbeat──▶ (renewed, still Active)
//	   │ ttl lapses                │ complete
//	   ▼                           ▼
//	Expired ──points reissued─▶ (a NEW lease)      Completed
//
// A lease only ever moves forward: Active → Expired or Active →
// Completed, never back. Reissue does not resurrect an expired lease —
// the reclaimed points are granted under a fresh lease ID — so a late
// completion is always attributable to the exact grant it came from,
// and the idempotency decision is made per point (by cache key), never
// per lease.
type LeaseState int

const (
	// LeaseActive is a granted lease inside its TTL.
	LeaseActive LeaseState = iota
	// LeaseExpired is a lease whose TTL lapsed before completion; its
	// points have returned to the queue.
	LeaseExpired
	// LeaseCompleted is a lease whose worker submitted its results.
	LeaseCompleted
)

// String renders the state for logs and test failures.
func (s LeaseState) String() string {
	switch s {
	case LeaseActive:
		return "active"
	case LeaseExpired:
		return "expired"
	case LeaseCompleted:
		return "completed"
	}
	return fmt.Sprintf("LeaseState(%d)", int(s))
}

// lease is one grant of points to one worker.
type lease struct {
	id       string
	worker   string
	points   []int // grid-expansion indexes, ascending
	state    LeaseState
	deadline time.Time
}

// leaseTable owns every lease of a campaign and implements the state
// machine above. It is not goroutine-safe; the coordinator serialises
// access under its own mutex. Time is always passed in explicitly so
// the transitions are a pure function of (table, operation, now) —
// which is what makes the FSM table-testable without sleeping.
//
// leases keeps every lease ever granted, for the terminal answers;
// active holds the Active ones in grant order, so expiry and the live
// counts cost O(live leases), not O(leases granted so far).
type leaseTable struct {
	ttl    time.Duration
	seq    int
	leases map[string]*lease
	active []*lease
}

func newLeaseTable(ttl time.Duration) *leaseTable {
	return &leaseTable{ttl: ttl, leases: map[string]*lease{}}
}

// grant issues a new Active lease over points with a fresh deadline.
func (lt *leaseTable) grant(worker string, points []int, now time.Time) *lease {
	lt.seq++
	l := &lease{
		id:       fmt.Sprintf("lease-%d", lt.seq),
		worker:   worker,
		points:   points,
		state:    LeaseActive,
		deadline: now.Add(lt.ttl),
	}
	lt.leases[l.id] = l
	lt.active = append(lt.active, l)
	return l
}

// heartbeat renews an Active lease's deadline. An expired or completed
// lease reports ErrLeaseExpired — the worker's signal that the
// coordinator no longer counts on it for these points — and an unknown
// ID reports ErrUnknownLease.
func (lt *leaseTable) heartbeat(id string, now time.Time) (*lease, error) {
	l, ok := lt.leases[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownLease, id)
	}
	switch l.state {
	case LeaseExpired:
		return nil, fmt.Errorf("%w: %s expired at %s", ErrLeaseExpired, id, l.deadline.Format(time.RFC3339))
	case LeaseCompleted:
		return nil, fmt.Errorf("%w: %s already completed", ErrLeaseExpired, id)
	}
	l.deadline = now.Add(lt.ttl)
	return l, nil
}

// complete transitions an Active lease to Completed and reports
// whether it was still active. Expired and unknown leases return
// wasActive=false without an error: completion is judged per point,
// and the lease record (if any) stays in its terminal state.
func (lt *leaseTable) complete(id string) (l *lease, wasActive bool) {
	l, ok := lt.leases[id]
	if !ok || l.state != LeaseActive {
		return l, false
	}
	l.state = LeaseCompleted
	lt.active = slices.DeleteFunc(lt.active, func(a *lease) bool { return a == l })
	return l, true
}

// expire transitions every Active lease whose deadline has passed to
// Expired and returns them in grant order (callers reclaim their
// points). now exactly at the deadline does not expire: a worker that
// renews every TTL is never raced by its own heartbeat interval.
func (lt *leaseTable) expire(now time.Time) []*lease {
	var out []*lease
	lt.active = slices.DeleteFunc(lt.active, func(l *lease) bool {
		if !now.After(l.deadline) {
			return false
		}
		l.state = LeaseExpired
		out = append(out, l)
		return true
	})
	return out
}

// activeCount counts leases currently in flight.
func (lt *leaseTable) activeCount() int { return len(lt.active) }

// activeWorkers counts distinct workers holding an active lease.
func (lt *leaseTable) activeWorkers() int {
	seen := map[string]bool{}
	for _, l := range lt.active {
		seen[l.worker] = true
	}
	return len(seen)
}
