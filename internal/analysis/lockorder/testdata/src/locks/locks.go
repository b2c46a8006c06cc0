// Package locks exercises the lock-order analyzer: cycles in the
// acquisition graph — direct, interprocedural, and self — are
// findings; consistent orders and early-unlock branches are not.
package locks

import "sync"

type a struct{ mu sync.Mutex }
type b struct{ mu sync.Mutex }

// abOrder and baOrder acquire the same two order classes in opposite
// directions: the two-lock deadlock. The cycle is reported once, at
// its earliest witness edge.
func abOrder(x *a, y *b) {
	x.mu.Lock()
	y.mu.Lock() // want `lock-order cycle among`
	y.mu.Unlock()
	x.mu.Unlock()
}

func baOrder(x *a, y *b) {
	y.mu.Lock()
	x.mu.Lock()
	x.mu.Unlock()
	y.mu.Unlock()
}

type c struct{ mu sync.Mutex }
type d struct{ mu sync.Mutex }

// withLock and reverse build the same inversion interprocedurally:
// each holds its own lock while calling into a function that acquires
// the other. Neither function sees both locks; only the call graph
// does.
func (x *c) withLock(y *d) {
	x.mu.Lock()
	defer x.mu.Unlock()
	y.lockedOp() // want `lock-order cycle among`
}

func (y *d) lockedOp() {
	y.mu.Lock()
	y.mu.Unlock()
}

func (y *d) reverse(x *c) {
	y.mu.Lock()
	defer y.mu.Unlock()
	x.direct()
}

func (x *c) direct() {
	x.mu.Lock()
	x.mu.Unlock()
}

type e struct{ mu sync.Mutex }

// nested re-acquires the held order class through a callee: the
// self-deadlock.
func nested(x *e) {
	x.mu.Lock()
	helperLock(x) // want `re-acquired while already held`
	x.mu.Unlock()
}

func helperLock(x *e) {
	x.mu.Lock()
	x.mu.Unlock()
}

type f struct{ mu sync.Mutex }
type g struct{ mu sync.Mutex }

// fgOnce and fgTwice take f before g on every path: a consistent
// order, no finding — including through the deferred-unlock idiom.
func fgOnce(x *f, y *g) {
	x.mu.Lock()
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}

func fgTwice(x *f, y *g) {
	x.mu.Lock()
	defer x.mu.Unlock()
	y.mu.Lock()
	defer y.mu.Unlock()
}

// branchy exercises the structured walker: the early unlock-and-return
// branch must not strip the lock from the fallthrough path, and the
// second Unlock pairs with the surviving hold.
func branchy(x *f, fail bool) int {
	x.mu.Lock()
	if fail {
		x.mu.Unlock()
		return 0
	}
	n := 1
	x.mu.Unlock()
	return n
}

// localInversion takes two function-local mutexes in both orders on
// different paths. Their order classes are keyed by the declaring
// function, and the message must print those names balanced.
func localInversion(fail bool) {
	var mu, emitMu sync.Mutex
	if fail {
		mu.Lock()
		emitMu.Lock() // want `lock-order cycle among \{locks\.localInversion\.emitMu, locks\.localInversion\.mu\}: `
		emitMu.Unlock()
		mu.Unlock()
		return
	}
	emitMu.Lock()
	mu.Lock()
	mu.Unlock()
	emitMu.Unlock()
}
