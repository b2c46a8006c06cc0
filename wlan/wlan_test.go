package wlan

import (
	"context"
	"testing"
	"time"
)

// run executes cfg on a throwaway Lab.
func run(cfg Config) (*Result, error) {
	lab := NewLab()
	defer lab.Close()
	return lab.Run(context.Background(), cfg)
}

func TestRunDefaults(t *testing.T) {
	res, err := run(Config{Topology: Connected(5), Duration: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Successes == 0 {
		t.Error("no successes")
	}
	if res.ThroughputMbps() <= 0 {
		t.Error("zero throughput")
	}
}

func TestAllSchemesRun(t *testing.T) {
	for _, sch := range []Scheme{DCF, IdleSense, WTOPCSMA, TORACSMA} {
		res, err := run(Config{Topology: Connected(6), Scheme: sch, Duration: 3 * time.Second})
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		if res.Successes == 0 {
			t.Errorf("%s: no successes", sch)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := run(Config{}); err == nil {
		t.Error("missing topology accepted")
	}
	if _, err := run(Config{Topology: Connected(3), Scheme: "bogus"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := run(Config{Topology: Connected(3), Scheme: WTOPCSMA, Weights: []float64{1}}); err == nil {
		t.Error("weight length mismatch accepted")
	}
	if _, err := run(Config{Topology: Connected(3), Scheme: DCF, Weights: []float64{1, 1, 1}}); err == nil {
		t.Error("weights with non-wTOP scheme accepted")
	}
}

func TestHiddenDiscProducesHiddenPairsAndValidates(t *testing.T) {
	found := false
	for seed := int64(1); seed <= 5; seed++ {
		tp := HiddenDisc(30, 16, seed)
		if err := tp.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(tp.HiddenPairs()) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no hidden pairs in any draw")
	}
	// Radius 20 projection keeps stations connected to the AP.
	tp := HiddenDisc(30, 20, 1)
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCustomTopology(t *testing.T) {
	tp := Custom([]Point{{X: 4}, {X: -4}})
	if tp.N() != 2 || !tp.FullyConnected() {
		t.Error("custom topology wrong")
	}
}

func TestChurnThroughFacade(t *testing.T) {
	res, err := run(Config{
		Topology: Connected(10),
		Scheme:   WTOPCSMA,
		Duration: 4 * time.Second,
		Churn:    []ChurnStep{{At: Duration(2 * time.Second), Active: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Successes == 0 {
		t.Error("no successes")
	}
	if n := res.ActiveSeries.Len(); n == 0 || res.ActiveSeries.Values[n-1] != 4 {
		t.Errorf("active-station series %v, want it to end at 4", res.ActiveSeries.Values)
	}
}

func TestAnalyticHelpers(t *testing.T) {
	p := OptimalAttemptProbability(20)
	if p <= 0 || p >= 1 {
		t.Errorf("p* = %v", p)
	}
	if s := MaxThroughputMbps(20); s < 20 || s > 28 {
		t.Errorf("S* = %v Mbps", s)
	}
	if d := DCFThroughputMbps(40); d <= 0 || d >= MaxThroughputMbps(40) {
		t.Errorf("DCF prediction %v Mbps not below optimum", d)
	}
}
