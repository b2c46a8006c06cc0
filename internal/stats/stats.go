// Package stats provides the measurement primitives used across the
// simulators and the experiment harness: running moments, windowed
// throughput meters, time series, fairness indices and histograms.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates a running mean and variance using Welford's
// numerically stable online algorithm. The zero value is an empty
// accumulator ready for use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds a new observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (n−1 denominator).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n < 1 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// JainIndex returns Jain's fairness index (Σx)² / (n·Σx²) for the given
// allocations: 1 for perfect equality, 1/n for a single hog. Returns 1
// for empty or all-zero input (nothing is unfair about nothing).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	// Normalise by the largest magnitude first so that squaring cannot
	// overflow even for extreme inputs; the index is scale-invariant.
	maxAbs := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		v := x / maxAbs
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// WeightedJainIndex normalises each allocation by its weight before
// computing Jain's index — the natural fairness measure for Definition 2's
// weighted throughput allocations.
func WeightedJainIndex(xs, weights []float64) (float64, error) {
	if len(xs) != len(weights) {
		return 0, fmt.Errorf("stats: %d allocations but %d weights", len(xs), len(weights))
	}
	norm := make([]float64, len(xs))
	for i := range xs {
		if weights[i] <= 0 {
			return 0, fmt.Errorf("stats: weight[%d] = %v must be positive", i, weights[i])
		}
		norm[i] = xs[i] / weights[i]
	}
	return JainIndex(norm), nil
}
