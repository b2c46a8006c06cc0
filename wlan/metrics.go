package wlan

import (
	"io"
	"net/http"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Metrics is a Lab's live instrumentation: counters and gauges over
// the replication and sweep fan-out paths, rendered in the Prometheus
// text exposition format. Create one with NewMetrics, attach it with
// WithMetrics, and either mount Handler on an HTTP server (the
// wlansim -metrics-addr endpoint) or poll Snapshot for an in-process
// progress view.
//
// Observation is strictly passive: a metrics-enabled Lab produces
// bit-identical results and byte-identical sweep output to a
// metrics-off one. After a sweep finishes, the point counters add up
// exactly to the returned SweepStats (owned = simulated + cached +
// failed).
type Metrics struct {
	reg   *metrics.Registry
	scen  *scenario.Metrics
	sweep *sweep.Metrics
}

// NewMetrics returns a fresh metric set. One Metrics belongs to one
// Lab: attaching it to several Labs would sum their counters.
func NewMetrics() *Metrics {
	reg := metrics.NewRegistry()
	m := &Metrics{
		reg:   reg,
		scen:  scenario.NewMetrics(reg),
		sweep: sweep.NewMetrics(reg),
	}
	// The derived gauges are Snapshot's own formulas, evaluated at
	// scrape time, so /metrics and Snapshot cannot disagree.
	reg.GaugeFunc("wlansim_worker_utilization",
		"Fraction of pool workers busy simulating (0..1).",
		func() float64 { return m.Snapshot().Utilization })
	reg.GaugeFunc("wlansim_sweep_cache_hit_rate",
		"Fraction of satisfied sweep points served from the cache (0..1).",
		func() float64 { return m.Snapshot().CacheHitRate })
	return m
}

// WithMetrics attaches m to the Lab: every scenario replication and
// sweep point the Lab executes from then on is counted.
func WithMetrics(m *Metrics) LabOption {
	return func(l *Lab) {
		l.metrics = m
		l.runner.Metrics = m.scen
	}
}

// Handler returns the /metrics endpoint: Prometheus text exposition
// format (version 0.0.4).
func (m *Metrics) Handler() http.Handler { return m.reg.Handler() }

// WritePrometheus renders the current values in Prometheus text
// exposition format, sorted by metric name.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	return m.reg.WritePrometheus(w)
}

// MetricsSnapshot is a point-in-time copy of every Lab metric, for
// in-process consumers like the wlansim -progress ticker.
type MetricsSnapshot struct {
	// Sweep point satisfaction (totals across the Lab's lifetime).
	PointsOwned     uint64
	PointsSimulated uint64
	PointsCached    uint64
	PointsFailed    uint64
	RowsEmitted     uint64
	// CacheHitRate is cached/(cached+simulated), 0 before any point.
	CacheHitRate float64

	// Replication fan-out.
	Replications         uint64
	ReplicationsInFlight int64
	Workers              int64
	// Utilization is in-flight/workers clamped to [0,1].
	Utilization float64

	// Kernel events fired, and their wall-clock rate since the first
	// replication.
	Events          uint64
	EventsPerSecond float64
}

// Snapshot copies the current values. Counters are read individually
// (not under one lock), so a snapshot taken mid-run is approximate
// across metrics while each value is exact.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		PointsOwned:          m.sweep.PointsOwned.Value(),
		PointsSimulated:      m.sweep.PointsSimulated.Value(),
		PointsCached:         m.sweep.PointsCached.Value(),
		PointsFailed:         m.sweep.PointsFailed.Value(),
		RowsEmitted:          m.sweep.RowsEmitted.Value(),
		Replications:         m.scen.Replications.Value(),
		ReplicationsInFlight: m.scen.InFlight.Value(),
		Workers:              m.scen.Workers.Value(),
		Events:               m.scen.Events.Value(),
		EventsPerSecond:      m.scen.EventsPerSecond(),
	}
	if done := s.PointsCached + s.PointsSimulated; done > 0 {
		s.CacheHitRate = float64(s.PointsCached) / float64(done)
	}
	if s.Workers > 0 {
		s.Utilization = float64(s.ReplicationsInFlight) / float64(s.Workers)
		if s.Utilization > 1 {
			s.Utilization = 1
		}
	}
	return s
}
