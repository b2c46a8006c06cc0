package svc

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"slices"
	"time"
)

// lease is one grant of points to one worker. A lease lives from its
// grant until it completes or its TTL lapses, and never comes back:
// reissued points go out under a fresh lease ID, so a late completion
// is always attributable to the exact grant it came from, and the
// idempotency decision is made per point (by cache key), never per
// lease.
type lease struct {
	id       string
	worker   string
	points   []int // grid-expansion indexes, ascending
	deadline time.Time
}

// leaseTable holds a campaign's live leases in grant order. It is not
// goroutine-safe; the coordinator serialises access under its own
// mutex. Time is always passed in explicitly so the transitions are a
// pure function of (table, operation, now), which is what makes the
// table testable without sleeping.
//
// A completed or expired lease leaves the table, so every ID that is
// not live — completed, expired, or never granted — gets the same
// answer, ErrLeaseExpired: the coordinator no longer counts on its
// holder. IDs carry a random per-table prefix, so a lease granted
// before a coordinator restart can never name one granted after it.
type leaseTable struct {
	ttl    time.Duration
	prefix string
	seq    int
	active []*lease
}

func newLeaseTable(ttl time.Duration) *leaseTable {
	var b [6]byte
	rand.Read(b[:]) // crypto/rand.Read never fails (it crashes the program instead)
	return &leaseTable{ttl: ttl, prefix: "lease-" + hex.EncodeToString(b[:])}
}

// grant issues a new live lease over points with a fresh deadline.
func (lt *leaseTable) grant(worker string, points []int, now time.Time) *lease {
	lt.seq++
	l := &lease{
		id:       fmt.Sprintf("%s-%d", lt.prefix, lt.seq),
		worker:   worker,
		points:   points,
		deadline: now.Add(lt.ttl),
	}
	lt.active = append(lt.active, l)
	return l
}

// find returns the live lease named id and its position, or nil.
func (lt *leaseTable) find(id string) (int, *lease) {
	for i, l := range lt.active {
		if l.id == id {
			return i, l
		}
	}
	return -1, nil
}

// heartbeat renews a live lease's deadline. Any other ID reports
// ErrLeaseExpired: the worker's signal that the coordinator no longer
// counts on it for these points.
func (lt *leaseTable) heartbeat(id string, now time.Time) error {
	_, l := lt.find(id)
	if l == nil {
		return fmt.Errorf("%w: %s is not live", ErrLeaseExpired, id)
	}
	l.deadline = now.Add(lt.ttl)
	return nil
}

// complete removes a live lease and returns it, or nil when id is not
// live: completion is judged per point, so a late completion needs no
// lease.
func (lt *leaseTable) complete(id string) *lease {
	i, l := lt.find(id)
	if l != nil {
		lt.active = slices.Delete(lt.active, i, i+1)
	}
	return l
}

// expire removes every live lease whose deadline has passed and returns
// them in grant order (callers reclaim their points). now exactly at
// the deadline does not expire: a worker that renews every TTL is
// never raced by its own heartbeat interval.
func (lt *leaseTable) expire(now time.Time) []*lease {
	var out []*lease
	lt.active = slices.DeleteFunc(lt.active, func(l *lease) bool {
		if !now.After(l.deadline) {
			return false
		}
		out = append(out, l)
		return true
	})
	return out
}

// activeCount counts leases currently in flight.
func (lt *leaseTable) activeCount() int { return len(lt.active) }

// activeWorkers counts distinct workers holding a live lease.
func (lt *leaseTable) activeWorkers() int {
	seen := map[string]bool{}
	for _, l := range lt.active {
		seen[l.worker] = true
	}
	return len(seen)
}
