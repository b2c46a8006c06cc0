package eventsim_test

// Arena-reuse contract: a Simulator reset for a new configuration must
// be indistinguishable — byte for byte in its Result encoding — from a
// freshly constructed one. The scenario runner leans on this to reuse
// one simulator per worker across replications; any divergence would
// make results depend on worker scheduling.

import (
	"encoding/json"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/sim"
)

// resultBytes canonicalises a Result for exact comparison, including
// the latency histogram moments the JSON encoding cannot see.
func resultBytes(t *testing.T, res *eventsim.Result) []byte {
	t.Helper()
	data, err := json.Marshal(&resultFingerprint{
		Result:       res,
		LatencyCount: res.Latency.Count(),
		LatencyMean:  res.Latency.Mean(),
		LatencyP50:   res.Latency.Quantile(0.50),
		LatencyP99:   res.Latency.Quantile(0.99),
		LatencyMax:   res.Latency.Max(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestResetMatchesNew drives one simulator arena through the whole
// fingerprint battery — every case back to back on the same instance,
// deliberately switching topology size, scheme, traffic model and
// RTS/CTS between runs — and requires each Result to equal the fresh
// New construction bit for bit.
func TestResetMatchesNew(t *testing.T) {
	arena := new(eventsim.Simulator)
	for _, fc := range fingerprintCases() {
		for _, seed := range fc.seeds {
			fresh := fc.run(t, seed)
			reused := fc.runReset(t, seed, arena)
			got, want := resultBytes(t, reused), resultBytes(t, fresh)
			if string(got) != string(want) {
				t.Errorf("%s seed %d: Reset diverges from New:\n reset %s\n fresh %s",
					fc.name, seed, got, want)
			}
		}
	}
}

// TestResetValidates confirms Reset applies the same validation as New
// and leaves no half-initialised state behind on error: first on a zero
// Simulator, then on one that has run.
func TestResetValidates(t *testing.T) {
	fc := fingerprintCases()[0]
	want := string(resultBytes(t, fc.run(t, 1)))
	var s eventsim.Simulator
	for pass := 0; pass < 2; pass++ {
		if err := s.Reset(eventsim.Config{}); err == nil {
			t.Fatal("Reset accepted a config without a topology")
		}
		// The simulator must still be fully usable for a valid config.
		if got := string(resultBytes(t, fc.runReset(t, 1, &s))); got != want {
			t.Fatalf("pass %d: diverges from fresh construction after a failed Reset", pass)
		}
	}
}

// TestResetSteadyAllocBound pins what a warm Reset+Run allocates: the
// Result with its station slice and cloned series, none of the run's
// own storage. A field dropped from the arena is rebuilt per run and
// breaks the bound (New+Run of the same run allocates 100–106), and so
// does a frame left in the air at the end of a run that Reset does not
// return to the transmission pool (DCF then allocates 7).
func TestResetSteadyAllocBound(t *testing.T) {
	for _, tc := range []struct {
		scheme string
		max    float64
	}{{"dcf", 6}, {"wtop", 8}, {"tora", 8}} {
		// One policy set serves every run: rebuilding it per run would
		// count its allocations, and only the count is checked here.
		policies, controller := policySet(tc.scheme, 20, phyForBench)
		cfg := eventsim.Config{
			Topology:   benchTopology(20),
			Policies:   policies,
			Controller: controller,
			Seed:       1,
		}
		s := new(eventsim.Simulator)
		run := func() {
			if err := s.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			s.Run(300 * sim.Millisecond)
		}
		run() // warm the arena
		if avg := testing.AllocsPerRun(10, run); avg > tc.max {
			t.Errorf("%s: warm Reset+Run allocates %.1f, want ≤ %.0f", tc.scheme, avg, tc.max)
		}
	}
}

// BenchmarkSimulatorReuse contrasts per-replication construction cost:
// a fresh New per run versus Reset on one arena — the sweep runner's
// steady state. Run with -benchmem; the reset path must shed the
// RNG-state and scheduler-pool allocations that dominate New.
func BenchmarkSimulatorReuse(b *testing.B) {
	cfg := func(seed int64) eventsim.Config {
		policies, _ := policySet("dcf", 20, phyForBench)
		return eventsim.Config{
			Topology: benchTopology(20),
			Policies: policies,
			Seed:     seed,
		}
	}
	const dur = 100 * sim.Millisecond
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := eventsim.New(cfg(int64(i + 1)))
			if err != nil {
				b.Fatal(err)
			}
			s.Run(dur)
		}
	})
	b.Run("reset", func(b *testing.B) {
		b.ReportAllocs()
		s := new(eventsim.Simulator)
		for i := 0; i < b.N; i++ {
			if err := s.Reset(cfg(int64(i + 1))); err != nil {
				b.Fatal(err)
			}
			s.Run(dur)
		}
	})
}
