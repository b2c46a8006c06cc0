package eventsim

import (
	"math"
	"testing"

	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func unsatConfig(n int, arrivals []traffic.Spec, seed int64) Config {
	policies := make([]mac.Policy, n)
	for i := range policies {
		policies[i] = mac.NewStandardDCF(16, 1024)
	}
	return Config{
		PHY:      model.PaperPHY(),
		Topology: topo.New(topo.Point{}, topo.CircleEdge(n, 8), topo.PaperRadii()),
		Policies: policies,
		Arrivals: arrivals,
		Seed:     seed,
	}
}

// In a clearly underloaded Poisson configuration, every offered packet
// must be delivered (no drops, queues stable) so throughput equals the
// offered load — the basic correctness property of the unsaturated
// regime the saturated paper model cannot express.
func TestPoissonUnderloadServesOfferedLoad(t *testing.T) {
	const (
		n    = 10
		rate = 100.0 // packets/s/station → 8 Mbps aggregate, well under capacity
	)
	duration := 20 * sim.Second
	if testing.Short() {
		duration = 8 * sim.Second
	}
	arr := make([]traffic.Spec, n)
	for i := range arr {
		arr[i] = traffic.Spec{Kind: traffic.Poisson, Rate: rate}
	}
	s, err := New(unsatConfig(n, arr, 5))
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(duration)

	offered := n * rate * duration.Seconds() * float64(model.PaperPHY().Payload)
	if rel := math.Abs(res.Throughput*duration.Seconds()-offered) / offered; rel > 0.05 {
		t.Errorf("delivered %.0f bits vs offered %.0f (off %.1f%%)", res.Throughput*duration.Seconds(), offered, 100*rel)
	}
	if res.PacketsDropped != 0 {
		t.Errorf("underloaded run dropped %d packets", res.PacketsDropped)
	}
	if res.PacketsArrived == 0 {
		t.Fatal("no arrivals recorded")
	}
	// Arrival count must be Poisson(n·rate·T) to within 5 sigma.
	wantArrivals := float64(n) * rate * duration.Seconds()
	if dev := math.Abs(float64(res.PacketsArrived) - wantArrivals); dev > 5*math.Sqrt(wantArrivals) {
		t.Errorf("arrivals %d vs expected %.0f (dev %.0f)", res.PacketsArrived, wantArrivals, dev)
	}
	// Latency must be recorded for every delivery and be at least one
	// full data-frame airtime.
	if res.Latency.Count() != res.Successes {
		t.Errorf("latency samples %d != successes %d", res.Latency.Count(), res.Successes)
	}
	minService := model.PaperPHY().DataTxTime()
	if res.Latency.Min() < minService {
		t.Errorf("min latency %v below a single frame airtime %v", res.Latency.Min(), minService)
	}
	if res.Latency.Quantile(0.5) <= 0 || res.Latency.Quantile(0.99) < res.Latency.Quantile(0.5) {
		t.Errorf("implausible latency quantiles p50=%v p99=%v", res.Latency.Quantile(0.5), res.Latency.Quantile(0.99))
	}
}

// A one-packet queue under overload must drop and must never exceed its
// capacity (conservation: arrivals = deliveries + drops + still queued).
func TestQueueCapDropsUnderOverload(t *testing.T) {
	const n = 5
	arr := make([]traffic.Spec, n)
	for i := range arr {
		arr[i] = traffic.Spec{Kind: traffic.Poisson, Rate: 5000, QueueCap: 1}
	}
	s, err := New(unsatConfig(n, arr, 9))
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(5 * sim.Second)
	if res.PacketsDropped == 0 {
		t.Error("overloaded 1-packet queues never dropped")
	}
	var queued int64
	for _, st := range s.stations {
		queued += int64(st.queue.len())
		if st.queue.len() > 1 {
			t.Errorf("station %d queue length %d exceeds cap 1", st.id, st.queue.len())
		}
	}
	// In-flight head-of-line packets are still queued (popped at ACK), so
	// arrivals = successes + drops + queued exactly.
	if got := res.Successes + res.PacketsDropped + queued; got != res.PacketsArrived {
		t.Errorf("packet conservation: %d delivered+dropped+queued vs %d arrived", got, res.PacketsArrived)
	}
}

// OnOff sources must deliver the duty-cycle-weighted mean load.
func TestOnOffDutyCycleLoad(t *testing.T) {
	const n = 6
	// No -short reduction: at 12 s each station sees ~15 cycles and the
	// relative spread across seeds is ~11%, so 15% would be a 1.4σ bound.
	duration := 30 * sim.Second
	spec := traffic.Spec{
		Kind:    traffic.OnOff,
		Rate:    400,
		OnMean:  200 * sim.Millisecond,
		OffMean: 600 * sim.Millisecond,
	}
	arr := make([]traffic.Spec, n)
	for i := range arr {
		arr[i] = spec
	}
	s, err := New(unsatConfig(n, arr, 21))
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(duration)
	want := float64(n) * spec.MeanRate() * duration.Seconds()
	got := float64(res.PacketsArrived)
	// Phase-level variance dominates: each station sees ~37 cycles, so
	// allow 15%.
	if rel := math.Abs(got-want) / want; rel > 0.15 {
		t.Errorf("onoff arrivals %.0f vs duty-cycle expectation %.0f (off %.1f%%)", got, want, 100*rel)
	}
	if res.PacketsDropped != 0 {
		t.Errorf("underloaded onoff run dropped %d packets", res.PacketsDropped)
	}
}

// Churn composed with unsaturated sources: departures freeze the queue,
// re-arrivals resume it, and packet conservation holds throughout.
func TestChurnWithPoissonSources(t *testing.T) {
	const n = 8
	arr := make([]traffic.Spec, n)
	for i := range arr {
		arr[i] = traffic.Spec{Kind: traffic.Poisson, Rate: 200}
	}
	s, err := New(unsatConfig(n, arr, 33))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetActiveAt(sim.Time(2*sim.Second), 3); err != nil {
		t.Fatal(err)
	}
	if err := s.SetActiveAt(sim.Time(4*sim.Second), n); err != nil {
		t.Fatal(err)
	}
	res := s.Run(8 * sim.Second)
	var queued int64
	for _, st := range s.stations {
		queued += int64(st.queue.len())
	}
	if got := res.Successes + res.PacketsDropped + queued; got != res.PacketsArrived {
		t.Errorf("packet conservation under churn: %d vs %d arrived", got, res.PacketsArrived)
	}
	if res.Successes == 0 {
		t.Fatal("no deliveries under churn")
	}
}

// Reactivating a station while its deferred-stop exchange is still in
// flight must restart the arrival process deactivateNow silenced:
// without that the station drains its queue and idles forever while
// nominally active.
func TestRapidChurnKeepsArrivalsAlive(t *testing.T) {
	const n = 4
	arr := make([]traffic.Spec, n)
	for i := range arr {
		arr[i] = traffic.Spec{Kind: traffic.Poisson, Rate: 2000}
	}
	s, err := New(unsatConfig(n, arr, 13))
	if err != nil {
		t.Fatal(err)
	}
	// Flap every 200 µs for a while: far shorter than one frame exchange
	// (~200 µs data + SIFS + ACK), so deactivations routinely land
	// mid-exchange and the matching reactivation hits deferredStop.
	for i := 0; i < 500; i++ {
		at := sim.Time(sim.Duration(i) * 200 * sim.Microsecond)
		active := 1 + i%n
		if err := s.SetActiveAt(at, active); err != nil {
			t.Fatal(err)
		}
	}
	res := s.Run(4 * sim.Second)
	// After the flapping stops every station is active; each must still
	// have a live arrival process and comparable arrival counts.
	for _, st := range s.stations {
		if st.state == stateInactive {
			t.Fatalf("station %d inactive after final activation", st.id)
		}
		if !st.nextArrival.Active() && !st.phaseRef.Active() {
			t.Errorf("station %d: arrival process dead (trafficOn=%v)", st.id, st.trafficOn)
		}
		// ~3.9 s of post-churn life at 2000 pkt/s plus churn-phase
		// activity: a dead source would sit orders of magnitude lower.
		if st.arrivals < 4000 {
			t.Errorf("station %d: only %d arrivals, source likely stalled", st.id, st.arrivals)
		}
	}
	var queued int64
	for _, st := range s.stations {
		queued += int64(st.queue.len())
	}
	if got := res.Successes + res.PacketsDropped + queued; got != res.PacketsArrived {
		t.Errorf("packet conservation under rapid churn: %d vs %d arrived", got, res.PacketsArrived)
	}
}

// The all-saturated path must stay bit-identical whether Arrivals is nil
// or an explicit all-saturated slice — the compatibility contract that
// keeps the paper-regime goldens stable.
func TestExplicitSaturatedMatchesNilArrivals(t *testing.T) {
	run := func(arr []traffic.Spec) *Result {
		cfg := unsatConfig(6, arr, 77)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(5 * sim.Second)
	}
	a := run(nil)
	b := run(make([]traffic.Spec, 6)) // zero value = saturated
	if a.Throughput != b.Throughput || a.Successes != b.Successes ||
		a.Collisions != b.Collisions || a.EventsFired != b.EventsFired {
		t.Errorf("explicit saturated diverged from nil arrivals: %+v vs %+v",
			[4]any{a.Throughput, a.Successes, a.Collisions, a.EventsFired},
			[4]any{b.Throughput, b.Successes, b.Collisions, b.EventsFired})
	}
	// Saturated deliveries still produce access-delay latency samples.
	if a.Latency.Count() != a.Successes {
		t.Errorf("saturated latency samples %d != successes %d", a.Latency.Count(), a.Successes)
	}
}
