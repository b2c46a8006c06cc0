// Lockset helpers for the lockorder analyzer: which mutexes are
// lexically held at a program point, and how a mutex expression is
// named across functions.
//
// Everything here is a deliberate approximation with a stated bias.
// The lockset walker is LEXICAL: it tracks Lock/Unlock pairs in source
// order inside one function body, treats a deferred Unlock as held
// until function exit, and forgets a mutex at the first Unlock it sees
// even when that Unlock sits on a conditional path. That bias
// under-approximates the held set, so lockorder misses some real
// inversions but does not cry wolf on the dominant Go idiom (lock,
// branch, unlock-and-return early) — the right trade for a checker
// that gates CI on a zero-finding contract.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockMethods classifies sync.Mutex/RWMutex method names.
var lockMethods = map[string]bool{"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true}
var unlockMethods = map[string]bool{"Unlock": true, "RUnlock": true}

// MutexRecv returns the receiver expression of a sync.(RW)Mutex
// Lock/Unlock-family call, or nil. locking reports whether the call
// acquires (vs releases).
func MutexRecv(info *types.Info, call *ast.CallExpr) (recv ast.Expr, locking, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	f, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return nil, false, false
	}
	recvVar := f.Type().(*types.Signature).Recv()
	if recvVar == nil {
		return nil, false, false
	}
	name := f.Name()
	switch {
	case lockMethods[name]:
		return sel.X, true, true
	case unlockMethods[name]:
		return sel.X, false, true
	}
	return nil, false, false
}

// ExprKey canonicalizes a mutex receiver expression to a stable
// within-function identity: the chain of identifiers and field names
// ("c.mu", "emitMu"). Expressions with calls or indexing inside resolve
// to "" (not trackable).
func ExprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := ExprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.StarExpr:
		return ExprKey(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return ExprKey(e.X)
		}
	}
	return ""
}

// MutexKey canonicalizes a mutex receiver for CROSS-function identity,
// which is what the lock-order graph needs: a field mutex is keyed by
// its declaring struct type and field path ("(repro/internal/svc.Coordinator).mu"),
// a local or package-level mutex variable by its declaring scope
// ("funcOrPkg.mu"). Untrackable receivers key to "".
func MutexKey(info *types.Info, scopeName string, e ast.Expr) string {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		// Field path: key by the field's declaring named type so c.mu
		// and d.mu (same type) are one lock ORDER CLASS. That is the
		// right granularity for ordering discipline: the protocol
		// "Coordinator.mu before Client.jitterMu" is a statement about
		// types, not instances.
		if sel, ok := info.Selections[e]; ok && sel.Obj() != nil {
			if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
				recv := sel.Recv()
				for {
					if p, ok := recv.(*types.Pointer); ok {
						recv = p.Elem()
						continue
					}
					break
				}
				return "(" + recv.String() + ")." + v.Name()
			}
		}
		key := ExprKey(e)
		if key == "" {
			return ""
		}
		return scopeName + "." + key
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		return scopeName + "." + e.Name
	case *ast.StarExpr:
		return MutexKey(info, scopeName, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return MutexKey(info, scopeName, e.X)
		}
	}
	return ""
}

// LockVisit is the callback of WalkLocks: node n is visited with the
// set of mutex keys lexically held at n (callers must not retain or
// mutate held). For a Lock/RLock call the callback fires with the set
// held BEFORE the acquire — which is exactly the edge the lock-order
// graph wants.
type LockVisit func(n ast.Node, held map[string]bool)

// WalkLocks walks body maintaining the lexically-held mutex set, keyed
// by keyFn over Lock/Unlock receiver expressions (a "" key is not
// tracked). The walk is structured, not token-linear:
//
//   - a deferred Unlock keeps its mutex held for the remainder of the
//     function (the idiomatic lock-guard);
//   - an if/switch branch is walked with a copy of the held set; a
//     branch that terminates (return, break, continue, goto, panic)
//     contributes nothing to the set after the statement, so the
//     early-unlock-and-return idiom does not strip the lock from the
//     fallthrough path;
//   - branches that fall through are merged by INTERSECTION: a mutex
//     counts as held after a conditional only when every surviving
//     path holds it (the under-approximation bias — see the package
//     comment);
//   - loop bodies are walked with a copy and their changes discarded
//     (a loop may run zero times);
//   - a function literal's body is walked with an EMPTY held set — a
//     closure generally outlives the critical section it was built in.
func WalkLocks(info *types.Info, body *ast.BlockStmt, keyFn func(ast.Expr) string, visit LockVisit) {
	w := &lockWalker{info: info, keyFn: keyFn, visit: visit, sticky: map[string]bool{}}
	if body != nil {
		w.stmts(body.List, map[string]bool{})
	}
}

type lockWalker struct {
	info   *types.Info
	keyFn  func(ast.Expr) string
	visit  LockVisit
	sticky map[string]bool // deferred unlocks: held to function end
}

func copySet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func intersect(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// stmts walks a statement list sequentially, threading the held set.
func (w *lockWalker) stmts(list []ast.Stmt, held map[string]bool) map[string]bool {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

// terminates reports whether a statement list certainly transfers
// control out (so lockset changes inside it never reach the statement
// after the enclosing conditional).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// branch walks a conditional branch on a copy of held and reports the
// resulting set plus whether the branch terminates.
func (w *lockWalker) branch(list []ast.Stmt, held map[string]bool) (map[string]bool, bool) {
	out := w.stmts(list, copySet(held))
	return out, terminates(list)
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]bool) map[string]bool {
	switch s := s.(type) {
	case nil:
		return held
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if recv, locking, ok := MutexRecv(w.info, call); ok {
				if key := w.keyFn(recv); key != "" {
					w.visit(call, held)
					if locking {
						held[key] = true
					} else if !w.sticky[key] {
						delete(held, key)
					}
					return held
				}
			}
		}
		w.expr(s.X, held)
		return held
	case *ast.DeferStmt:
		if recv, locking, ok := MutexRecv(w.info, s.Call); ok && !locking {
			if key := w.keyFn(recv); key != "" && held[key] {
				w.sticky[key] = true
				return held
			}
		}
		w.expr(s.Call, held)
		return held
	case *ast.BlockStmt:
		return w.stmts(s.List, copySet(held))
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		thenHeld, thenTerm := w.branch(s.Body.List, held)
		var elseHeld map[string]bool
		elseTerm := false
		switch e := s.Else.(type) {
		case nil:
			elseHeld = copySet(held)
		case *ast.BlockStmt:
			elseHeld, elseTerm = w.branch(e.List, held)
		case *ast.IfStmt:
			elseHeld = w.stmt(e, copySet(held))
			// A chained else-if's termination is not tracked; treat it
			// as falling through (under-approximates held).
		}
		switch {
		case thenTerm && elseTerm:
			return held // code after is unreachable; keep the set stable
		case thenTerm:
			return elseHeld
		case elseTerm:
			return thenHeld
		default:
			return intersect(thenHeld, elseHeld)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.expr(s.Cond, held)
		}
		body := w.stmts(s.Body.List, copySet(held))
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
		return held
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.stmts(s.Body.List, copySet(held))
		return held
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		w.clauses(s.Body, held)
		return held
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.clauses(s.Body, held)
		return held
	case *ast.SelectStmt:
		w.clauses(s.Body, held)
		return held
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.GoStmt:
		w.expr(s.Call, held)
		return held
	default:
		// Assignments, returns, sends, declarations, incdec, …: no
		// control structure, just visit every inner node.
		w.node(s, held)
		return held
	}
}

// clauses walks each case/comm clause body on a copy of held,
// discarding the results (any clause may or may not run).
func (w *lockWalker) clauses(body *ast.BlockStmt, held map[string]bool) {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.expr(e, held)
			}
			w.stmts(c.Body, copySet(held))
		case *ast.CommClause:
			if c.Comm != nil {
				w.stmt(c.Comm, copySet(held))
			}
			w.stmts(c.Body, copySet(held))
		}
	}
}

func (w *lockWalker) expr(e ast.Expr, held map[string]bool) { w.node(e, held) }

// node visits every sub-node with the current held set, entering
// function literals with an empty set.
func (w *lockWalker) node(n ast.Node, held map[string]bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil {
			return true
		}
		if lit, ok := x.(*ast.FuncLit); ok {
			sub := &lockWalker{info: w.info, keyFn: w.keyFn, visit: w.visit, sticky: map[string]bool{}}
			sub.stmts(lit.Body.List, map[string]bool{})
			return false
		}
		w.visit(x, held)
		return true
	})
}

// HeldKeys returns held's keys sorted, for diagnostics.
func HeldKeys(held map[string]bool) []string {
	out := make([]string, 0, len(held))
	for k := range held {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ShortMutex trims the package path's directories from a cross-function
// mutex key for human messages: "(repro/internal/svc.Coordinator).mu"
// → "(svc.Coordinator).mu", "repro/internal/scenario.RunBatchFunc.mu" →
// "scenario.RunBatchFunc.mu".
func ShortMutex(key string) string {
	i := strings.LastIndex(key, "/")
	if i < 0 {
		return key
	}
	if strings.HasPrefix(key, "(") {
		return "(" + key[i+1:]
	}
	return key[i+1:]
}
