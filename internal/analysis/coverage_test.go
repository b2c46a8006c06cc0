package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// hotpathInventory is the agreed mapping between the //wlanvet:hotpath
// annotations and the runtime allocation guardrails: each group lists
// every annotated function in a package, and the guardrail tests that
// drive those paths at runtime. The test fails in both directions — a
// listed function missing its annotation, or an annotation on a
// function not listed here — so the static contract and the runtime
// contract cannot drift apart silently.
var hotpathInventory = map[string][]string{
	// TestSchedulerAfterStepZeroAlloc, TestSchedulerAfterArgStepZeroAlloc,
	// TestSchedulerCancelZeroAlloc, TestSchedulerCandidateZeroAlloc
	// (internal/sim/alloc_test.go).
	"../sim": {
		"After", "AfterArg", "At", "AtArg", "Cancel", "ClearCandidate",
		"SetCandidate", "Step", "TakeSeq", "alloc", "dequeue", "down",
		"enqueue", "peekLive", "peekMin", "pop", "push", "queueMin",
		"release", "schedule", "up",
	},
	// TestSlotLoopZeroAllocSteadyState, TestSlotLoopZeroAllocTraffic,
	// TestSlotLoopControllerSteadyAllocBound (internal/slotsim/alloc_test.go).
	"../slotsim": {
		"admitArrivals", "advance", "insert", "link", "minCounter",
		"observe", "redraw", "remove", "resume", "scan",
		"slotsUntilArrival", "takeExpired", "track", "untrack",
	},
	// TestPerFramePathZeroAllocSteadyState, ...PPersistent, ...Traffic,
	// TestRTSCTSPathZeroAllocSteadyState, TestControllerPathSteadyAllocBound
	// (internal/eventsim/alloc_test.go).
	"../eventsim": {
		"ackBegin", "ackEnd", "apBusyEnd", "apBusyStart", "armCountdown",
		"arrival", "beaconEnd", "beaconTx", "broadcastControl", "busyAll",
		"busyRow", "busyWord", "clear", "crossBusy", "crossIdle",
		"ctsBegin", "ctsEnd", "disarm", "failTimeout", "freeTransmission",
		"has", "holdNAV", "idleAll", "idleCandidates", "idleRow",
		"idleScratch", "idleWord", "launch", "navEnd", "newTransmission",
		"observeIdleGap", "phaseFlip", "pop", "push", "rearm",
		"recordLatency", "reservedData", "scheduleArrival", "set",
		"skipGap", "startContention", "tryBeacon", "txBegin",
		"txComplete", "uncover",
	},
}

// annotatedFuncs parses every non-test file in dir and returns the
// names of functions carrying the //wlanvet:hotpath directive.
func annotatedFuncs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && IsHotpath(fd) {
				names = append(names, fd.Name.Name)
			}
		}
	}
	sort.Strings(names)
	return names
}

func TestHotpathAnnotationsMatchAllocGuardrails(t *testing.T) {
	for dir, want := range hotpathInventory {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			got := annotatedFuncs(t, dir)
			w := append([]string(nil), want...)
			sort.Strings(w)
			if strings.Join(got, ",") != strings.Join(w, ",") {
				t.Errorf("//wlanvet:hotpath functions in %s:\n got %v\nwant %v",
					dir, got, w)
			}
		})
	}
}
