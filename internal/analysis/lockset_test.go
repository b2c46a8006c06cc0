package analysis

import (
	"go/ast"
	"reflect"
	"strings"
	"testing"
)

const lkSrc = `package lk

import "sync"

func probe(tag string) {}

func earlyUnlock(mu *sync.Mutex, fail bool) {
	mu.Lock()
	if fail {
		mu.Unlock()
		probe("branch-after-unlock")
		return
	}
	probe("fallthrough-held")
	mu.Unlock()
	probe("after-unlock")
}

func deferred(mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	probe("deferred-held")
}

func looped(mu *sync.Mutex, n int) {
	for i := 0; i < n; i++ {
		mu.Lock()
		probe("loop-held")
		mu.Unlock()
	}
	probe("after-loop")
}

func merged(mu, mu2 *sync.Mutex, fail bool) {
	if fail {
		mu.Lock()
	} else {
		mu.Lock()
		mu2.Lock()
	}
	probe("intersection")
}

func closures(mu *sync.Mutex) func() {
	mu.Lock()
	defer mu.Unlock()
	return func() {
		probe("inside-lit")
	}
}

type box struct{ mu sync.Mutex }

func (b *box) locked() {
	b.mu.Lock()
	probe("field-held")
	b.mu.Unlock()
}
`

// probeHeld walks fn's body and returns tag -> held keys at each probe
// call.
func probeHeld(t *testing.T, pkg *Package, fnName string, keyFn func(ast.Expr) string) map[string][]string {
	t.Helper()
	var fd *ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if x, ok := d.(*ast.FuncDecl); ok && x.Name.Name == fnName {
				fd = x
			}
		}
	}
	if fd == nil {
		t.Fatalf("no function %q", fnName)
	}
	out := map[string][]string{}
	WalkLocks(pkg.TypesInfo, fd.Body, keyFn, func(n ast.Node, held map[string]bool) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "probe" {
			return
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok {
			return
		}
		out[strings.Trim(lit.Value, `"`)] = HeldKeys(held)
	})
	return out
}

func TestWalkLocksStructured(t *testing.T) {
	pkg := checkSrc(t, "lk", lkSrc)
	want := map[string]map[string][]string{
		// The early-unlock branch terminates, so the fallthrough path
		// keeps the lock; the branch itself sees it released.
		"earlyUnlock": {
			"branch-after-unlock": {},
			"fallthrough-held":    {"mu"},
			"after-unlock":        {},
		},
		// A deferred Unlock keeps the mutex held to function end.
		"deferred": {"deferred-held": {"mu"}},
		// Loop bodies run zero or more times: held inside, discarded
		// after.
		"looped": {"loop-held": {"mu"}, "after-loop": {}},
		// Fallthrough branches merge by intersection.
		"merged": {"intersection": {"mu"}},
		// A function literal's body starts with an empty held set.
		"closures": {"inside-lit": {}},
	}
	for fn, probes := range want {
		got := probeHeld(t, pkg, fn, ExprKey)
		for tag, keys := range probes {
			g, ok := got[tag]
			if !ok {
				t.Errorf("%s: probe %q never visited", fn, tag)
				continue
			}
			if len(keys) == 0 {
				keys = nil
			}
			if len(g) == 0 {
				g = nil
			}
			if !reflect.DeepEqual(g, keys) {
				t.Errorf("%s: probe %q held = %v, want %v", fn, tag, g, keys)
			}
		}
	}
}

func TestMutexKeyFieldKeyedByType(t *testing.T) {
	pkg := checkSrc(t, "lk", lkSrc)
	keyFn := func(e ast.Expr) string { return MutexKey(pkg.TypesInfo, "lk.locked", e) }
	got := probeHeld(t, pkg, "locked", keyFn)
	want := []string{"(lk.box).mu"}
	if !reflect.DeepEqual(got["field-held"], want) {
		t.Errorf("field mutex key = %v, want %v (keyed by declaring type, not instance)", got["field-held"], want)
	}
}

func TestShortMutexBalanced(t *testing.T) {
	for key, want := range map[string]string{
		"(repro/internal/svc.Coordinator).mu":         "(svc.Coordinator).mu",
		"repro/internal/scenario.RunBatchFunc.emitMu": "scenario.RunBatchFunc.emitMu",
		"repro/internal/sweep.cacheMu":                "sweep.cacheMu",
		"(locks.a).mu":                                "(locks.a).mu",
		"locks.localInversion.mu":                     "locks.localInversion.mu",
	} {
		if got := ShortMutex(key); got != want {
			t.Errorf("ShortMutex(%q) = %q, want %q", key, got, want)
		}
	}
}
