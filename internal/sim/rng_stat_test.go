package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"testing"
)

// Statistical evidence for the generator: goodness-of-fit of every
// variate the engines draw, and independence of the streams they derive.
// Seeds are fixed, so each test is deterministic; the critical values
// are the 0.999 quantiles of the chi-square law (α = 0.001): a sound
// generator fails a given seed with probability 1/1000.
var chiSquare999 = map[int]float64{
	15: 37.697,
	31: 61.098,
	63: 103.442,
}

// chiSquare is Pearson's statistic of observed counts against expected
// probabilities (which must sum to 1) over n draws.
func chiSquare(observed []int, probs []float64, n int) float64 {
	stat := 0.0
	for i, o := range observed {
		e := probs[i] * float64(n)
		d := float64(o) - e
		stat += d * d / e
	}
	return stat
}

// checkChiSquare fails t when the statistic exceeds the α = 0.001
// critical value for len(observed)-1 degrees of freedom.
func checkChiSquare(t *testing.T, name string, observed []int, probs []float64, n int) {
	t.Helper()
	df := len(observed) - 1
	crit, ok := chiSquare999[df]
	if !ok {
		t.Fatalf("%s: no critical value for %d degrees of freedom", name, df)
	}
	if stat := chiSquare(observed, probs, n); stat > crit {
		t.Errorf("%s: χ² = %.2f > %.3f (df %d, α = 0.001)", name, stat, crit, df)
	}
}

// UniformWindow(cw) must be uniform on [0, cw-1]. Values are grouped
// into bins of ⌈cw/B⌉ or ⌊cw/B⌋ consecutive values, each with its exact
// probability, so the large windows are tested across their whole range.
func TestUniformWindowChiSquare(t *testing.T) {
	for _, tc := range []struct{ cw, bins, n int }{
		{16, 16, 160_000},
		{1024, 64, 640_000},
		{100_000, 64, 640_000},
	} {
		g := NewStream(2024, int64(tc.cw))
		observed := make([]int, tc.bins)
		for i := 0; i < tc.n; i++ {
			observed[g.UniformWindow(tc.cw)*tc.bins/tc.cw]++
		}
		probs := make([]float64, tc.bins)
		for v := 0; v < tc.cw; v++ {
			probs[v*tc.bins/tc.cw] += 1 / float64(tc.cw)
		}
		checkChiSquare(t, fmt.Sprintf("UniformWindow(%d)", tc.cw), observed, probs, tc.n)
	}
}

// Geometric(p) must follow P(k) = p(1-p)^k. Sixteen bins: fifteen of
// width w starting at 0 and an open tail, w chosen so the tail keeps a
// fifth or less of the mass for the small-p case.
func TestGeometricChiSquare(t *testing.T) {
	for _, tc := range []struct {
		p float64
		w int
	}{
		{0.01, 10},
		{0.1, 1},
		{0.5, 1},
	} {
		const bins, n = 16, 1_000_000
		g := NewStream(7, int64(tc.w))
		observed := make([]int, bins)
		for i := 0; i < n; i++ {
			b := g.Geometric(tc.p) / tc.w
			if b >= bins {
				b = bins - 1
			}
			observed[b]++
		}
		q := 1 - tc.p
		probs := make([]float64, bins)
		for b := range probs {
			lo := math.Pow(q, float64(b*tc.w)) // P(K ≥ b·w)
			hi := 0.0
			if b < bins-1 {
				hi = math.Pow(q, float64((b+1)*tc.w))
			}
			probs[b] = lo - hi
		}
		checkChiSquare(t, fmt.Sprintf("Geometric(%v)", tc.p), observed, probs, n)
	}
}

// Exp must be exponential with rate 1: its CDF 1-e^{-x} maps draws onto
// 32 equiprobable bins.
func TestExpChiSquare(t *testing.T) {
	const bins, n = 32, 640_000
	g := NewStream(99, 0)
	observed := make([]int, bins)
	for i := 0; i < n; i++ {
		b := int(-math.Expm1(-g.Exp()) * bins)
		if b >= bins {
			b = bins - 1
		}
		observed[b]++
	}
	probs := make([]float64, bins)
	for b := range probs {
		probs[b] = 1.0 / bins
	}
	checkChiSquare(t, "Exp", observed, probs, n)
}

// The derivations the engines rely on must yield independent streams:
// adjacent seeds, adjacent station streams, and a station's backoff
// stream against its arrival stream. For each pair, the paired uniforms
// must show no linear correlation (|r| < 4/√n, a 4σ bound), their joint
// distribution over an 8×8 grid must pass the χ² independence-of-cells
// test, and the first 4096 63-bit outputs of the two streams must be
// disjoint (a stream that is a shifted copy of the other would repeat
// them). PCG-DXSM's output permutation hides related starting states
// from tests of this size, so the derivation is checked directly too:
// each pair of initial state words must differ in 32 ± 16 of their 64
// bits, as independent words do.
func TestCrossStreamIndependence(t *testing.T) {
	type pair struct {
		name       string
		seedA, stA int64
		seedB, stB int64
	}
	var pairs []pair
	for _, s := range []int64{0, 1, 2024, -1, math.MaxInt64} {
		for _, i := range []int{0, 1, 99_999} {
			pairs = append(pairs,
				pair{"seed s vs s+1", s, int64(i), s + 1, int64(i)},
				pair{"stream i vs i+1", s, int64(i), s, int64(i + 1)},
				pair{"station vs arrival", s, int64(i), s, ArrivalStream(i)},
			)
		}
	}
	const n, grid, overlap = 64_000, 8, 4096
	for _, pr := range pairs {
		a, b := NewStream(pr.seedA, pr.stA), NewStream(pr.seedB, pr.stB)
		name := fmt.Sprintf("%s (seed %d, stream %d)", pr.name, pr.seedA, pr.stA)
		sa, sb := pcgState(t, a), pcgState(t, b)
		for w := range sa {
			if d := bits.OnesCount64(sa[w] ^ sb[w]); d < 16 || d > 48 {
				t.Errorf("%s: initial state word %d differs in %d of 64 bits", name, w, d)
			}
		}
		cells := make([]int, grid*grid)
		var sx, sy, sxx, syy, sxy float64
		for i := 0; i < n; i++ {
			x, y := a.Float64(), b.Float64()
			sx, sy = sx+x, sy+y
			sxx, syy, sxy = sxx+x*x, syy+y*y, sxy+x*y
			cells[int(x*grid)*grid+int(y*grid)]++
		}
		cov := sxy/n - (sx/n)*(sy/n)
		r := cov / math.Sqrt((sxx/n-(sx/n)*(sx/n))*(syy/n-(sy/n)*(sy/n)))
		if math.Abs(r) >= 4/math.Sqrt(n) {
			t.Errorf("%s: correlation %.5f beyond 4/√n = %.5f", name, r, 4/math.Sqrt(n))
		}
		probs := make([]float64, grid*grid)
		for i := range probs {
			probs[i] = 1.0 / (grid * grid)
		}
		checkChiSquare(t, name+" joint", cells, probs, n)

		a.Reseed(pr.seedA, pr.stA)
		b.Reseed(pr.seedB, pr.stB)
		seen := make(map[int64]bool, overlap)
		for i := 0; i < overlap; i++ {
			seen[a.Int63()] = true
		}
		for i := 0; i < overlap; i++ {
			if v := b.Int63(); seen[v] {
				t.Errorf("%s: draw %d of the second stream repeats an output of the first", name, i)
				break
			}
		}
	}
}

// pcgState returns g's two LCG state words from the PCG's binary form,
// "pcg:" followed by the high and low words big-endian.
func pcgState(t *testing.T, g *RNG) [2]uint64 {
	t.Helper()
	b, err := g.src.MarshalBinary()
	if err != nil || len(b) != 20 {
		t.Fatalf("PCG state: %d bytes, %v", len(b), err)
	}
	return [2]uint64{binary.BigEndian.Uint64(b[4:12]), binary.BigEndian.Uint64(b[12:20])}
}
