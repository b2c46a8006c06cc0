package wlan_test

import (
	"context"
	"fmt"
	"time"

	"repro/wlan"
)

// A Lab ties the whole surface together: one worker pool behind single
// runs, replicated scenarios and parameter sweeps, all cancellable
// through the context and all bit-identical to one-shot execution.
func Example_lab() {
	ctx := context.Background()
	lab := wlan.NewLab(wlan.WithParallelism(2))
	defer lab.Close()

	// One simulation from a Config (either engine).
	res, err := lab.Run(ctx, wlan.Config{
		Topology: wlan.Connected(10),
		Scheme:   wlan.DCF,
		Duration: 3 * time.Second,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("run: delivered frames: %v\n", res.Successes > 0)

	// A replicated declarative scenario with CI aggregation.
	sum, err := lab.RunScenario(ctx, wlan.Scenario{
		Name:     "poisson",
		Topology: wlan.TopologySpec{Kind: wlan.TopoConnected, N: 6},
		Traffic:  []wlan.TrafficSpec{wlan.PoissonTraffic(120)},
		Duration: wlan.Duration(2 * time.Second),
		Seeds:    2,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("scenario: %d replications, packets delivered: %v\n",
		sum.Replications, sum.Latency.Packets > 0)

	// A parameter grid, streamed point by point in expansion order.
	grid := &wlan.Grid{
		Name: "demo",
		Base: wlan.Scenario{
			Topology: wlan.TopologySpec{Kind: wlan.TopoConnected},
			Duration: wlan.Duration(time.Second),
		},
		Axes: []wlan.Axis{{Field: wlan.FieldNodes, Values: wlan.Ints(2, 4)}},
	}
	for pt, err := range lab.Sweep(ctx, grid) {
		if err != nil {
			panic(err)
		}
		fmt.Printf("sweep: %s ok: %v\n", pt.Name, pt.Summary.ThroughputMbps.Mean > 0)
	}
	// Output:
	// run: delivered frames: true
	// scenario: 2 replications, packets delivered: true
	// sweep: demo/nodes=2 ok: true
	// sweep: demo/nodes=4 ok: true
}

// The smallest possible run: standard 802.11 in a connected network.
func ExampleLab_Run() {
	lab := wlan.NewLab()
	defer lab.Close()
	res, err := lab.Run(context.Background(), wlan.Config{
		Topology: wlan.Connected(10),
		Scheme:   wlan.DCF,
		Duration: 5 * time.Second,
		Seed:     1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("delivered frames: %v, collisions seen: %v\n",
		res.Successes > 0, res.Collisions > 0)
	// Output: delivered frames: true, collisions seen: true
}

// Weighted fairness: stations derive their attempt probabilities from
// the broadcast control variable and their own weights (Lemma 1); the AP
// never learns the weights.
func ExampleLab_Run_weighted() {
	lab := wlan.NewLab()
	defer lab.Close()
	res, err := lab.Run(context.Background(), wlan.Config{
		Topology: wlan.Connected(4),
		Scheme:   wlan.WTOPCSMA,
		Weights:  []float64{1, 1, 2, 2},
		Duration: 20 * time.Second,
	})
	if err != nil {
		panic(err)
	}
	ratio := res.Stations[2].Throughput / res.Stations[0].Throughput
	fmt.Printf("weight-2 station earns about %.0fx a weight-1 station's throughput\n", ratio)
	// Output: weight-2 station earns about 2x a weight-1 station's throughput
}

// Node churn: the controller re-tracks the optimum as stations arrive.
func ExampleLab_Run_churn() {
	lab := wlan.NewLab()
	defer lab.Close()
	res, err := lab.Run(context.Background(), wlan.Config{
		Topology: wlan.Connected(20),
		Scheme:   wlan.TORACSMA,
		Duration: 10 * time.Second,
		Churn: []wlan.ChurnStep{
			{At: 0, Active: 5}, // start with 5 stations
			{At: wlan.Duration(5 * time.Second), Active: 20}, // 15 more arrive
		},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("adaptation windows recorded: %v\n", res.ControlSeries.Len() > 0)
	// Output: adaptation windows recorded: true
}
