package scenario

import (
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Metrics is the runner's optional instrumentation: live counters and
// gauges for the replication fan-out path, registered on a shared
// metrics.Registry. A nil Metrics (the default) costs the hot path one
// predicate per replication; a non-nil one costs a handful of atomic
// adds. Instrumentation is a pure observer — it never feeds back into
// simulation state — so metrics-on runs stay bit-identical to
// metrics-off runs.
type Metrics struct {
	// Replications counts completed replications.
	Replications *metrics.Counter
	// InFlight gauges replications currently simulating on a worker.
	InFlight *metrics.Gauge
	// Events counts kernel events fired across all replications.
	Events *metrics.Counter
	// Workers gauges the pool size (set when the pool starts).
	Workers *metrics.Gauge

	// startNanos is the wall-clock time of the first replication,
	// recorded once; events/sec is measured from here.
	startNanos atomic.Int64
}

// NewMetrics registers the runner's metric set on reg and returns the
// handle to hand to a Runner. Events/sec is derived at scrape time
// here, next to the wall-clock stamp it needs; worker utilization is
// derived by the wlan facade's scrape layer.
func NewMetrics(reg *metrics.Registry) *Metrics {
	m := &Metrics{
		Replications: reg.Counter("wlansim_replications_total",
			"Completed scenario replications."),
		InFlight: reg.Gauge("wlansim_replications_in_flight",
			"Replications currently simulating on a worker."),
		Events: reg.Counter("wlansim_sim_events_total",
			"Kernel events fired across all replications."),
		Workers: reg.Gauge("wlansim_workers",
			"Simulation worker pool size."),
	}
	reg.GaugeFunc("wlansim_events_per_second",
		"Kernel events fired per wall-clock second since the first replication.",
		func() float64 { return m.EventsPerSecond() })
	return m
}

// begin marks one replication as simulating.
func (m *Metrics) begin() {
	if m == nil {
		return
	}
	//wlanvet:allow run-stamp wall clock: feeds only the events/sec scrape gauge, never simulation state (TestMetricsDoNotChangeOutput pins it)
	m.startNanos.CompareAndSwap(0, time.Now().UnixNano())
	m.InFlight.Inc()
}

// end marks one replication as finished, adding its fired event count
// on success.
func (m *Metrics) end(events uint64, ok bool) {
	if m == nil {
		return
	}
	m.InFlight.Dec()
	if ok {
		m.Replications.Inc()
		m.Events.Add(events)
	}
}

// EventsPerSecond reports the wall-clock event rate since the first
// replication began (0 before any replication ran).
func (m *Metrics) EventsPerSecond() float64 {
	if m == nil {
		return 0
	}
	start := m.startNanos.Load()
	if start == 0 {
		return 0
	}
	//wlanvet:allow run-stamp wall clock: events/sec is a fact about this execution, computed at scrape time only
	elapsed := time.Since(time.Unix(0, start)).Seconds()
	if elapsed <= 0 {
		return 0
	}
	//wlanvet:allow render-time observer: EventsPerSecond serves the scrape gauge, nothing simulation-side calls it
	return float64(m.Events.Value()) / elapsed
}
