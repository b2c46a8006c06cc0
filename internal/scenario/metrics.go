package scenario

import "repro/internal/metrics"

// Metrics is the runner's optional instrumentation: live counters and
// gauges for the replication fan-out path, registered on a shared
// metrics.Registry. A nil Metrics (the default) costs the hot path one
// predicate per replication; a non-nil one costs a handful of atomic
// adds. The runner only ever writes to it; derived signals such as
// events/s and utilization are computed by the wlan facade's scrape
// layer, so metrics-on runs stay bit-identical to metrics-off runs.
type Metrics struct {
	// Replications counts completed replications.
	Replications *metrics.Counter
	// InFlight gauges replications currently simulating on a worker.
	InFlight *metrics.Gauge
	// Events counts kernel events fired across all replications.
	Events *metrics.Counter
	// Workers gauges the pool size (set when the pool starts).
	Workers *metrics.Gauge
}

// NewMetrics registers the runner's metric set on reg and returns the
// handle to hand to a Runner.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		Replications: reg.Counter("wlansim_replications_total",
			"Completed scenario replications."),
		InFlight: reg.Gauge("wlansim_replications_in_flight",
			"Replications currently simulating on a worker."),
		Events: reg.Counter("wlansim_sim_events_total",
			"Kernel events fired across all replications."),
		Workers: reg.Gauge("wlansim_workers",
			"Simulation worker pool size."),
	}
}

// begin marks one replication as simulating.
func (m *Metrics) begin() {
	if m != nil {
		m.InFlight.Inc()
	}
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
