package experiment

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// The sweep path fans simulation cells out across a worker pool of
// GOMAXPROCS workers; cell results must not depend on how the fan-out is
// scheduled. A table built with one worker and with wider pools must be
// byte-identical — every cell owns its RNG and scheduler, so the only
// way this fails is shared mutable state leaking between cells.
func TestExperimentDeterministicAcrossParallelism(t *testing.T) {
	o := Options{
		Duration: 2 * sim.Second,
		Warmup:   1 * sim.Second,
		Seeds:    2,
		Nodes:    []int{5},
	}

	run := func(maxprocs int) string {
		prev := runtime.GOMAXPROCS(maxprocs)
		defer runtime.GOMAXPROCS(prev)
		tb, err := Fig3(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		return tb.String()
	}

	serial := run(1)
	for _, maxprocs := range []int{4, 8} {
		if got := run(maxprocs); got != serial {
			t.Errorf("GOMAXPROCS=%d diverged from the one-worker run:\n%s\nvs\n%s",
				maxprocs, got, serial)
		}
	}
}
