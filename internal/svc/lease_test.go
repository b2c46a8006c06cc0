package svc

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestLeaseFSM walks the lease lifecycle through every legal (and
// illegal) transition as a table: grant → heartbeat-renew → expire →
// reissue under a fresh lease → late completion of the stale lease.
// Time is a plain value threaded through each step, so the table runs
// in microseconds and the boundary cases (renewal exactly at the old
// deadline, expiry exactly at the TTL) are exact, not sleep-raced.
func TestLeaseFSM(t *testing.T) {
	const ttl = 10 * time.Second
	base := time.Unix(1_700_000_000, 0)

	// Each step advances the clock by dt, applies op, and checks the
	// outcome. lease selects the op's target by grant order (1-based);
	// id overrides it for never-granted probes.
	type step struct {
		name        string
		dt          time.Duration
		op          string // grant | heartbeat | complete | expire
		lease       int
		id          string
		wantErr     error
		wantLive    bool // complete: the lease was live
		wantExpired int  // expire: leases that lapsed this call
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{
			name: "granted lease expires one tick past its TTL, not at it",
			steps: []step{
				{name: "grant", op: "grant", lease: 1},
				{name: "at deadline", dt: ttl, op: "expire", wantExpired: 0},
				{name: "past deadline", dt: time.Nanosecond, op: "expire", wantExpired: 1},
				{name: "expired stays expired", op: "expire", wantExpired: 0},
			},
		},
		{
			name: "heartbeat renews the deadline",
			steps: []step{
				{name: "grant", op: "grant", lease: 1},
				{name: "renew before deadline", dt: ttl * 2 / 3, op: "heartbeat", lease: 1},
				{name: "old deadline passes harmlessly", dt: ttl * 2 / 3, op: "expire", wantExpired: 0},
				{name: "renewed deadline lapses", dt: ttl, op: "expire", wantExpired: 1},
			},
		},
		{
			name: "expired and completed leases reject heartbeats with ErrLeaseExpired",
			steps: []step{
				{name: "grant first", op: "grant", lease: 1},
				{name: "grant second", op: "grant", lease: 2},
				{name: "complete second", op: "complete", lease: 2, wantLive: true},
				{name: "first lapses", dt: ttl + time.Millisecond, op: "expire", wantExpired: 1},
				{name: "heartbeat expired", op: "heartbeat", lease: 1, wantErr: ErrLeaseExpired},
				{name: "heartbeat completed", op: "heartbeat", lease: 2, wantErr: ErrLeaseExpired},
			},
		},
		{
			name: "never-granted lease IDs reject heartbeats with ErrLeaseExpired",
			steps: []step{
				{name: "heartbeat nothing", op: "heartbeat", id: "lease-99", wantErr: ErrLeaseExpired},
				{name: "grant", op: "grant", lease: 1},
				{name: "heartbeat another table's first lease", op: "heartbeat", id: newLeaseTable(ttl).grant("w1", nil, base).id, wantErr: ErrLeaseExpired},
				{name: "complete nothing", op: "complete", id: "lease-99", wantLive: false},
			},
		},
		{
			name: "completion in time beats the deadline",
			steps: []step{
				{name: "grant", op: "grant", lease: 1},
				{name: "complete", dt: ttl / 2, op: "complete", lease: 1, wantLive: true},
				{name: "deadline passes, nothing to expire", dt: ttl, op: "expire", wantExpired: 0},
			},
		},
		{
			name: "reissue is a fresh lease; the stale lease's completion reports inactive",
			steps: []step{
				{name: "grant original", op: "grant", lease: 1},
				{name: "original lapses", dt: ttl + time.Millisecond, op: "expire", wantExpired: 1},
				{name: "reissue as new lease", op: "grant", lease: 2},
				{name: "late complete of original", op: "complete", lease: 1, wantLive: false},
				{name: "late complete again (retransmit)", op: "complete", lease: 1, wantLive: false},
				{name: "new lease completes normally", op: "complete", lease: 2, wantLive: true},
				{name: "completing twice is inert", op: "complete", lease: 2, wantLive: false},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lt := newLeaseTable(ttl)
			now := base
			var granted []*lease
			for _, s := range tc.steps {
				now = now.Add(s.dt)
				target := s.id
				if target == "" && s.lease > 0 && s.lease <= len(granted) {
					target = granted[s.lease-1].id
				}
				switch s.op {
				case "grant":
					granted = append(granted, lt.grant("w1", []int{len(granted)}, now))
				case "heartbeat":
					err := lt.heartbeat(target, now)
					if !errors.Is(err, s.wantErr) {
						t.Fatalf("%s: err %v, want %v", s.name, err, s.wantErr)
					}
				case "complete":
					l := lt.complete(target)
					if live := l != nil; live != s.wantLive {
						t.Fatalf("%s: live %v, want %v", s.name, live, s.wantLive)
					}
					if l != nil && l.id != target {
						t.Fatalf("%s: completed %s, want %s", s.name, l.id, target)
					}
				case "expire":
					got := lt.expire(now)
					if len(got) != s.wantExpired {
						t.Fatalf("%s: expired %d lease(s), want %d", s.name, len(got), s.wantExpired)
					}
				default:
					t.Fatalf("%s: unknown op %q", s.name, s.op)
				}
			}
		})
	}
}

// TestLeaseTableTracksLiveLeases runs a long campaign's worth of
// grant/complete cycles and checks that the table holds the live
// leases only: every ID is fresh, a settled lease and an ID never
// granted both answer ErrLeaseExpired, and expiry reclaims in grant
// order.
func TestLeaseTableTracksLiveLeases(t *testing.T) {
	const ttl = 10 * time.Second
	now := time.Unix(1_700_000_000, 0)
	lt := newLeaseTable(ttl)
	ids := map[string]bool{}
	var first string
	for i := 0; i < 1000; i++ {
		l := lt.grant(fmt.Sprintf("w%d", i%4), []int{i}, now)
		if ids[l.id] {
			t.Fatalf("cycle %d: lease ID %s granted twice", i, l.id)
		}
		ids[l.id] = true
		if i == 0 {
			first = l.id
		}
		if lt.complete(l.id) != l {
			t.Fatalf("cycle %d: fresh lease %s not live at completion", i, l.id)
		}
	}
	if n := lt.activeCount(); n != 0 || len(lt.active) != 0 {
		t.Fatalf("after 1000 completed cycles: activeCount %d, %d live leases, want 0", n, len(lt.active))
	}
	if err := lt.heartbeat(first, now); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("heartbeat on a completed lease: err %v, want ErrLeaseExpired", err)
	}
	if err := lt.heartbeat(lt.prefix+"-100000", now); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("heartbeat on a lease never granted: err %v, want ErrLeaseExpired", err)
	}

	a := lt.grant("wa", []int{1000}, now)
	b := lt.grant("wb", []int{1001}, now)
	c := lt.grant("wa", []int{1002}, now.Add(ttl))
	if n, w := lt.activeCount(), lt.activeWorkers(); n != 3 || w != 2 {
		t.Fatalf("three live leases over two workers: activeCount %d, activeWorkers %d", n, w)
	}
	got := lt.expire(now.Add(ttl + time.Nanosecond))
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("expired %v, want [%s %s] in grant order", got, a.id, b.id)
	}
	if n := lt.activeCount(); n != 1 || len(lt.active) != 1 {
		t.Fatalf("after expiry: activeCount %d, %d live leases, want 1", n, len(lt.active))
	}
	if err := lt.heartbeat(a.id, now.Add(ttl)); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("heartbeat on an expired lease: err %v, want ErrLeaseExpired", err)
	}
	if lt.complete(c.id) != c {
		t.Fatalf("live lease %s not live at completion", c.id)
	}
	if n := lt.activeCount(); n != 0 || len(lt.active) != 0 {
		t.Errorf("all leases settled: activeCount %d, %d live leases, want 0", n, len(lt.active))
	}
}
