// Package lockorder builds the module-wide lock-acquisition-order
// graph and reports cycles — the static form of deadlock detection.
//
// The module's locking protocols are simple today precisely because
// each one is documented and two-level at most: scenario.Runner's
// batch loop takes mu for aggregation state and emitMu for progress
// emission but never one inside the other; svc.Coordinator's mu guards
// lease tables and is released before any RPC. Those protocols are
// prose. The moment the contention-domain kernel lands, domain locks
// acquired in topology order join the picture, and "we never hold A
// while taking B" stops being checkable by reading one function: the
// hold happens here, the take happens two calls down, in another
// package. This analyzer makes the protocol mechanical: an edge A→B
// whenever B is acquired while A is held — lexically within one
// function, or through a static call chain (via the module call graph
// and per-function acquisition summaries memoized on Pass.Facts) — and
// any strongly-connected component in that graph is a finding.
//
// Identity is per lock ORDER CLASS, not per instance: a field mutex is
// keyed by its declaring struct type ("(svc.Coordinator).mu"), so the
// discipline being checked is the type-level protocol. That is also
// the approximation's sharp edge — two distinct instances of one type
// locked in sequence (hand-over-hand locking) looks like a self-cycle.
// That pattern is absent from this module today and the planned kernel
// acquires domain locks strictly by domain index; when hand-over-hand
// arrives it carries a //wlanvet:allow <reason> at the second acquire.
//
// Bias: under-approximation everywhere the held set is uncertain (see
// the WalkLocks contract), and calls through interface values or func
// values contribute no summary edges — only static callees do. A
// reported cycle is therefore worth believing.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the lock-ordering checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "lock acquisition order must be acyclic across the module, counting acquisitions made through static call chains",
	Run:  run,
}

// edge is one witnessed ordering: to was acquired (directly or through
// a call chain) while from was held.
type edge struct {
	from, to string
	pos      token.Pos // the acquiring Lock call or the call expression
	pkg      string    // package path where witnessed
	fn       string    // human name of the witnessing function
	via      string    // "" for a direct acquire; callee name for call-induced
}

// lockGraph is the memoized module-wide result.
type lockGraph struct {
	edges []edge
}

func run(pass *analysis.Pass) error {
	if pass.Facts == nil || pass.Facts.CallGraph == nil {
		return nil
	}
	g := pass.Facts.Memo("lockorder.graph", func() any {
		return buildGraph(pass.Facts.CallGraph)
	}).(*lockGraph)
	reportCycles(pass, g)
	return nil
}

// buildGraph walks every loaded function once, collecting direct
// acquisition sets and ordering edges, then closes call-induced edges
// over the call graph.
func buildGraph(cg *analysis.CallGraph) *lockGraph {
	type callSite struct {
		callee *types.Func
		held   []string
		pos    token.Pos
		pkg    string
		fn     string
	}
	direct := map[*types.Func]map[string]bool{}
	var edges []edge
	var calls []callSite

	for _, fn := range cg.Functions() {
		pkg := cg.PackageOf(fn)
		fd := cg.Decl(fn)
		if pkg == nil || fd == nil || fd.Body == nil {
			continue
		}
		scope := pkg.Path + "." + fn.Name()
		keyFn := func(e ast.Expr) string { return analysis.MutexKey(pkg.TypesInfo, scope, e) }
		fnName := fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			fnName = fn.FullName()
		}
		acquires := direct[fn]
		if acquires == nil {
			acquires = map[string]bool{}
			direct[fn] = acquires
		}
		analysis.WalkLocks(pkg.TypesInfo, fd.Body, keyFn, func(n ast.Node, held map[string]bool) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if recv, locking, ok := analysis.MutexRecv(pkg.TypesInfo, call); ok {
				if !locking {
					return
				}
				key := keyFn(recv)
				if key == "" {
					return
				}
				acquires[key] = true
				for _, h := range analysis.HeldKeys(held) {
					edges = append(edges, edge{from: h, to: key, pos: call.Pos(), pkg: pkg.Path, fn: fnName})
				}
				return
			}
			if len(held) == 0 {
				return
			}
			if callee := staticCallee(pkg.TypesInfo, call); callee != nil {
				calls = append(calls, callSite{callee: callee, held: analysis.HeldKeys(held), pos: call.Pos(), pkg: pkg.Path, fn: fnName})
			}
		})
	}

	// Close call-induced edges: a call made under lock inherits every
	// acquisition reachable from the callee through static call edges.
	transCache := map[*types.Func][]string{}
	trans := func(callee *types.Func) []string {
		if v, ok := transCache[callee]; ok {
			return v
		}
		set := map[string]bool{}
		for f := range cg.Reachable(callee) {
			for k := range direct[f] {
				set[k] = true
			}
		}
		out := analysis.HeldKeys(set)
		transCache[callee] = out
		return out
	}
	for _, cs := range calls {
		for _, to := range trans(cs.callee) {
			for _, from := range cs.held {
				edges = append(edges, edge{from: from, to: to, pos: cs.pos, pkg: cs.pkg, fn: cs.fn, via: cs.callee.Name()})
			}
		}
	}
	return &lockGraph{edges: edges}
}

// staticCallee resolves a call to a statically-known function or
// concrete method; interface and func-value calls return nil. The sync
// package itself is excluded (its calls are the lockset events).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok && s.Kind() == types.MethodVal {
			if _, isIface := s.Recv().Underlying().(*types.Interface); isIface {
				return nil
			}
		}
		id = fun.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() == "sync" {
		return nil
	}
	return f
}

// reportCycles finds strongly-connected components in the edge set and
// reports each cycle exactly once, in the package where its earliest
// witness edge lives — so multi-package cycles surface deterministically
// and only once per wlanvet run.
func reportCycles(pass *analysis.Pass, g *lockGraph) {
	adj := map[string]map[string]bool{}
	nodes := map[string]bool{}
	for _, e := range g.edges {
		nodes[e.from], nodes[e.to] = true, true
		if adj[e.from] == nil {
			adj[e.from] = map[string]bool{}
		}
		adj[e.from][e.to] = true
	}
	for _, scc := range tarjan(nodes, adj) {
		inSCC := map[string]bool{}
		for _, n := range scc {
			inSCC[n] = true
		}
		var cyc []edge
		for _, e := range g.edges {
			if inSCC[e.from] && inSCC[e.to] && (len(scc) > 1 || e.from == e.to) {
				cyc = append(cyc, e)
			}
		}
		if len(cyc) == 0 {
			continue
		}
		sort.Slice(cyc, func(i, j int) bool {
			if cyc[i].pkg != cyc[j].pkg {
				return cyc[i].pkg < cyc[j].pkg
			}
			return cyc[i].pos < cyc[j].pos
		})
		witness := cyc[0]
		if witness.pkg != pass.Pkg.Path() {
			continue // another package's pass owns this cycle
		}
		var locks []string
		for _, n := range scc {
			locks = append(locks, analysis.ShortMutex(n))
		}
		sort.Strings(locks)
		var parts []string
		for _, e := range cyc {
			p := pass.Fset.Position(e.pos)
			step := fmt.Sprintf("%s acquires %s while holding %s", e.fn, analysis.ShortMutex(e.to), analysis.ShortMutex(e.from))
			if e.via != "" {
				step += " (through " + e.via + ")"
			}
			parts = append(parts, fmt.Sprintf("%s at %s:%d", step, filepath.Base(p.Filename), p.Line))
		}
		if len(scc) == 1 {
			pass.Reportf(witness.pos,
				"lock-order cycle: %s is re-acquired while already held — %s; a second acquisition of the same order class self-deadlocks (or, for two instances of one type, needs a documented hand-over-hand order and a //wlanvet:allow <reason>)",
				analysis.ShortMutex(scc[0]), strings.Join(parts, "; "))
		} else {
			pass.Reportf(witness.pos,
				"lock-order cycle among {%s}: %s; pick one acquisition order for these locks and hold to it on every path",
				strings.Join(locks, ", "), strings.Join(parts, "; "))
		}
	}
}

// tarjan returns the strongly-connected components of the lock graph,
// each sorted, in deterministic (sorted-root) order.
func tarjan(nodes map[string]bool, adj map[string]map[string]bool) [][]string {
	order := make([]string, 0, len(nodes))
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var out [][]string

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		var succs []string
		for w := range adj[v] {
			succs = append(succs, w)
		}
		sort.Strings(succs)
		for _, w := range succs {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			out = append(out, scc)
		}
	}
	for _, n := range order {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return out
}
