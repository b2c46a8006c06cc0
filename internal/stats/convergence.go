package stats

import "repro/internal/sim"

// ConvergenceReport quantifies how an adaptive controller's throughput
// series approaches a target level — the measurements behind the paper's
// Section VI-D convergence discussion.
type ConvergenceReport struct {
	// Target is the reference level (e.g. the analytic optimum).
	Target float64
	// TimeToWithin is when the series first enters the band
	// [Target·(1−Tol), ∞) and stays there for the dwell window; zero
	// value with Converged=false when it never does.
	TimeToWithin sim.Time
	// Converged reports whether the dwell criterion was met.
	Converged bool
	// SteadyMean and SteadyStdDev describe the series after
	// TimeToWithin.
	SteadyMean, SteadyStdDev float64
	// Efficiency is SteadyMean/Target.
	Efficiency float64
}

// ConvergenceOptions tunes the detector.
type ConvergenceOptions struct {
	// Tol is the relative shortfall tolerated (default 0.1: within 90%
	// of target).
	Tol float64
	// Dwell is how many consecutive samples must stay in the band
	// (default 8) — a single lucky window does not count as converged.
	Dwell int
}

// AnalyzeConvergence scans a throughput series against a target level.
func AnalyzeConvergence(ts *TimeSeries, target float64, opt ConvergenceOptions) ConvergenceReport {
	if opt.Tol == 0 {
		opt.Tol = 0.1
	}
	if opt.Dwell == 0 {
		opt.Dwell = 8
	}
	rep := ConvergenceReport{Target: target}
	if ts.Len() == 0 || target <= 0 {
		return rep
	}
	floor := target * (1 - opt.Tol)
	run := 0
	enter := -1
	for i, v := range ts.Values {
		if v >= floor {
			if run == 0 {
				enter = i
			}
			run++
			if run >= opt.Dwell {
				// Verify the band holds (with brief dips allowed) for
				// the remainder: require ≥ 80% of remaining samples in
				// band.
				in, total := 0, 0
				for j := enter; j < ts.Len(); j++ {
					total++
					if ts.Values[j] >= floor {
						in++
					}
				}
				if float64(in) >= 0.8*float64(total) {
					rep.Converged = true
					rep.TimeToWithin = ts.Times[enter]
					var w Welford
					for j := enter; j < ts.Len(); j++ {
						w.Add(ts.Values[j])
					}
					rep.SteadyMean = w.Mean()
					rep.SteadyStdDev = w.StdDev()
					rep.Efficiency = rep.SteadyMean / target
					return rep
				}
				run = 0 // false alarm; keep scanning
			}
		} else {
			run = 0
		}
	}
	// Never converged: still report the tail statistics for diagnosis.
	var w Welford
	start := ts.Len() / 2
	for j := start; j < ts.Len(); j++ {
		w.Add(ts.Values[j])
	}
	rep.SteadyMean = w.Mean()
	rep.SteadyStdDev = w.StdDev()
	if target > 0 {
		rep.Efficiency = rep.SteadyMean / target
	}
	return rep
}
