package svc

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestLeaseFSM walks the lease state machine through every legal (and
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
	// id overrides it for unknown-lease probes.
	type step struct {
		name        string
		dt          time.Duration
		op          string // grant | heartbeat | complete | expire
		lease       int
		id          string
		wantErr     error
		wantState   LeaseState
		wantActive  bool // complete: reported wasActive
		wantExpired int  // expire: leases transitioned this call
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{
			name: "granted lease expires one tick past its TTL, not at it",
			steps: []step{
				{name: "grant", op: "grant", lease: 1, wantState: LeaseActive},
				{name: "at deadline", dt: ttl, op: "expire", wantExpired: 0},
				{name: "past deadline", dt: time.Nanosecond, op: "expire", wantExpired: 1},
				{name: "expired stays expired", op: "expire", wantExpired: 0},
			},
		},
		{
			name: "heartbeat renews the deadline",
			steps: []step{
				{name: "grant", op: "grant", lease: 1, wantState: LeaseActive},
				{name: "renew before deadline", dt: ttl * 2 / 3, op: "heartbeat", lease: 1, wantState: LeaseActive},
				{name: "old deadline passes harmlessly", dt: ttl * 2 / 3, op: "expire", wantExpired: 0},
				{name: "renewed deadline lapses", dt: ttl, op: "expire", wantExpired: 1},
			},
		},
		{
			name: "expired and completed leases reject heartbeats with ErrLeaseExpired",
			steps: []step{
				{name: "grant first", op: "grant", lease: 1},
				{name: "grant second", op: "grant", lease: 2},
				{name: "complete second", op: "complete", lease: 2, wantActive: true, wantState: LeaseCompleted},
				{name: "first lapses", dt: ttl + time.Millisecond, op: "expire", wantExpired: 1},
				{name: "heartbeat expired", op: "heartbeat", lease: 1, wantErr: ErrLeaseExpired},
				{name: "heartbeat completed", op: "heartbeat", lease: 2, wantErr: ErrLeaseExpired},
			},
		},
		{
			name: "unknown lease IDs are distinguishable from expired ones",
			steps: []step{
				{name: "heartbeat nothing", op: "heartbeat", id: "lease-99", wantErr: ErrUnknownLease},
			},
		},
		{
			name: "completion in time beats the deadline",
			steps: []step{
				{name: "grant", op: "grant", lease: 1},
				{name: "complete", dt: ttl / 2, op: "complete", lease: 1, wantActive: true, wantState: LeaseCompleted},
				{name: "deadline passes, nothing to expire", dt: ttl, op: "expire", wantExpired: 0},
			},
		},
		{
			name: "reissue is a fresh lease; the stale lease's completion reports inactive",
			steps: []step{
				{name: "grant original", op: "grant", lease: 1},
				{name: "original lapses", dt: ttl + time.Millisecond, op: "expire", wantExpired: 1},
				{name: "reissue as new lease", op: "grant", lease: 2, wantState: LeaseActive},
				{name: "late complete of original", op: "complete", lease: 1, wantActive: false, wantState: LeaseExpired},
				{name: "late complete again (retransmit)", op: "complete", lease: 1, wantActive: false, wantState: LeaseExpired},
				{name: "new lease completes normally", op: "complete", lease: 2, wantActive: true, wantState: LeaseCompleted},
				{name: "completing twice is inert", op: "complete", lease: 2, wantActive: false, wantState: LeaseCompleted},
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
					l := lt.grant("w1", []int{len(granted)}, now)
					granted = append(granted, l)
					if l.state != s.wantState {
						t.Fatalf("%s: state %v, want %v", s.name, l.state, s.wantState)
					}
				case "heartbeat":
					_, err := lt.heartbeat(target, now)
					if !errors.Is(err, s.wantErr) {
						t.Fatalf("%s: err %v, want %v", s.name, err, s.wantErr)
					}
				case "complete":
					l, active := lt.complete(target)
					if active != s.wantActive {
						t.Fatalf("%s: wasActive %v, want %v", s.name, active, s.wantActive)
					}
					if l != nil && l.state != s.wantState {
						t.Fatalf("%s: state %v, want %v", s.name, l.state, s.wantState)
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

// TestLeaseStateString pins the log rendering of every state.
func TestLeaseStateString(t *testing.T) {
	for want, s := range map[string]LeaseState{
		"active": LeaseActive, "expired": LeaseExpired, "completed": LeaseCompleted,
	} {
		if got := s.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", int(s), got, want)
		}
	}
	if got := LeaseState(7).String(); got != "LeaseState(7)" {
		t.Errorf("out-of-range state rendered %q", got)
	}
}

// TestLeaseTableTracksLiveLeases runs a long campaign's worth of
// grant/complete cycles and checks that the table's scan set holds the
// live leases only, while the terminal records still answer: a
// heartbeat on an old lease is ErrLeaseExpired, an ID never granted is
// ErrUnknownLease, and expiry reclaims in grant order.
func TestLeaseTableTracksLiveLeases(t *testing.T) {
	const ttl = 10 * time.Second
	now := time.Unix(1_700_000_000, 0)
	lt := newLeaseTable(ttl)
	for i := 0; i < 1000; i++ {
		l := lt.grant(fmt.Sprintf("w%d", i%4), []int{i}, now)
		if _, wasActive := lt.complete(l.id); !wasActive {
			t.Fatalf("cycle %d: fresh lease %s not active at completion", i, l.id)
		}
	}
	if n := lt.activeCount(); n != 0 || len(lt.active) != 0 {
		t.Fatalf("after 1000 completed cycles: activeCount %d, %d scanned leases, want 0", n, len(lt.active))
	}
	if _, err := lt.heartbeat("lease-1", now); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("heartbeat on a completed lease: err %v, want ErrLeaseExpired", err)
	}
	if _, err := lt.heartbeat("lease-100000", now); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("heartbeat on a lease never granted: err %v, want ErrUnknownLease", err)
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
		t.Fatalf("after expiry: activeCount %d, %d scanned leases, want 1", n, len(lt.active))
	}
	if _, err := lt.heartbeat(a.id, now.Add(ttl)); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("heartbeat on an expired lease: err %v, want ErrLeaseExpired", err)
	}
	if _, wasActive := lt.complete(c.id); !wasActive {
		t.Fatalf("live lease %s not active at completion", c.id)
	}
	if n := lt.activeCount(); n != 0 || len(lt.active) != 0 {
		t.Errorf("all leases settled: activeCount %d, %d scanned leases, want 0", n, len(lt.active))
	}
}
