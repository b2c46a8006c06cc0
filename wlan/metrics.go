package wlan

import (
	"io"
	"net/http"
	"sync/atomic"
	"time"

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
	sweep sweep.Counts

	// now is the wall clock the events/s rate reads; tests replace it.
	now func() time.Time
	// start is now's UnixNano at the Lab's first run on its worker
	// pool, 0 before it.
	start atomic.Int64
}

// NewMetrics returns a fresh metric set. One Metrics belongs to one
// Lab: attaching it to several Labs would sum their counters.
func NewMetrics() *Metrics {
	reg := metrics.NewRegistry()
	m := &Metrics{reg: reg, scen: scenario.NewMetrics(reg), now: time.Now}
	for _, c := range []struct {
		name, help string
		v          *atomic.Uint64
	}{
		{"wlansim_sweep_points_owned_total", "Sweep points owned by this process's shard(s).", &m.sweep.Owned},
		{"wlansim_sweep_points_simulated_total", "Sweep points satisfied by simulation.", &m.sweep.Simulated},
		{"wlansim_sweep_points_cached_total", "Sweep points served from the result cache.", &m.sweep.Cached},
		{"wlansim_sweep_points_failed_total", "Sweep points left unsatisfied by an aborted run.", &m.sweep.Failed},
		{"wlansim_sweep_rows_emitted_total", "Sweep result rows emitted to the consumer.", &m.sweep.Rows},
	} {
		reg.CounterFunc(c.name, c.help, c.v.Load)
	}
	// The derived gauges are Snapshot's own formulas, evaluated at
	// scrape time, so /metrics and Snapshot cannot disagree.
	reg.GaugeFunc("wlansim_events_per_second",
		"Kernel events fired per wall-clock second since the Lab's first pool run.",
		func() float64 { return m.Snapshot().EventsPerSecond })
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

// started stamps the Lab's first run on its worker pool, which the
// events/s rate measures from. A nil Metrics ignores it.
func (m *Metrics) started() {
	if m != nil && m.start.Load() == 0 {
		m.start.CompareAndSwap(0, m.now().UnixNano())
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

	// Kernel events fired, and their wall-clock rate since the Lab's
	// first run on its worker pool.
	Events          uint64
	EventsPerSecond float64
}

// Snapshot copies the current values. Counters are read individually
// (not under one lock), so a snapshot taken mid-run is approximate
// across metrics while each value is exact.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		PointsOwned:          m.sweep.Owned.Load(),
		PointsSimulated:      m.sweep.Simulated.Load(),
		PointsCached:         m.sweep.Cached.Load(),
		PointsFailed:         m.sweep.Failed.Load(),
		RowsEmitted:          m.sweep.Rows.Load(),
		Replications:         m.scen.Replications.Value(),
		ReplicationsInFlight: m.scen.InFlight.Value(),
		Workers:              m.scen.Workers.Value(),
		Events:               m.scen.Events.Value(),
	}
	if start := m.start.Load(); start != 0 {
		if elapsed := m.now().Sub(time.Unix(0, start)).Seconds(); elapsed > 0 {
			s.EventsPerSecond = float64(s.Events) / elapsed
		}
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
