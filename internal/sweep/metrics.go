package sweep

import "repro/internal/metrics"

// Metrics is the sweep runner's optional instrumentation: live point
// satisfaction counters registered on a shared metrics.Registry. Like
// scenario.Metrics it is a pure observer — a metrics-enabled sweep's
// JSONL output is byte-identical to a metrics-off run (pinned by
// TestMetricsDoNotChangeOutput) — and its final totals equal the
// returned Stats exactly: Owned = Simulated + Cached + Failed for
// every finished or aborted run.
type Metrics struct {
	// PointsOwned counts points owned by this process's shard(s),
	// accumulated per run at expansion time.
	PointsOwned *metrics.Counter
	// PointsSimulated counts points satisfied by simulation.
	PointsSimulated *metrics.Counter
	// PointsCached counts points served from the result cache.
	PointsCached *metrics.Counter
	// PointsFailed counts owned points left unsatisfied when a run
	// aborts: the failing point plus everything drained behind it.
	PointsFailed *metrics.Counter
	// RowsEmitted counts rows handed to the consumer (JSONL rows in
	// streaming mode).
	RowsEmitted *metrics.Counter
}

// NewMetrics registers the sweep metric set on reg. The cache hit rate
// is derived from these counters by the wlan facade's scrape layer.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		PointsOwned: reg.Counter("wlansim_sweep_points_owned_total",
			"Sweep points owned by this process's shard(s)."),
		PointsSimulated: reg.Counter("wlansim_sweep_points_simulated_total",
			"Sweep points satisfied by simulation."),
		PointsCached: reg.Counter("wlansim_sweep_points_cached_total",
			"Sweep points served from the result cache."),
		PointsFailed: reg.Counter("wlansim_sweep_points_failed_total",
			"Sweep points left unsatisfied by an aborted run."),
		RowsEmitted: reg.Counter("wlansim_sweep_rows_emitted_total",
			"Sweep result rows emitted to the consumer."),
	}
}
