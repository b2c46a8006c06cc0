package sim

import (
	"math"
	"math/rand/v2"
)

// RNG is a seeded PCG-DXSM generator (math/rand/v2's PCG: a 128-bit LCG
// with a DXSM output permutation) plus the variate helpers the MAC layer
// needs. Every generator is a pure function of a (seed, stream) pair, so
// runs are reproducible, and every consumer of a simulation owns a stream
// that no other consumer's draws can perturb.
//
// An RNG is its 16 bytes of PCG state and nothing else, so it is a plain
// value: a copy continues the same stream independently of the
// original. Each variate method wraps the state in a rand.Rand that is
// inlined and stays on the stack, so every variate is the stdlib's.
type RNG struct {
	src rand.PCG
}

// Stream identifiers partition the stream space of one seed among a
// simulation's consumers. Station i's MAC draws use stream i; every other
// consumer sits outside [0, 2³²), so no two generators derived from one
// seed coincide whatever the station count.
const (
	// rootStream is the stream NewRNG draws from.
	rootStream int64 = -1
	// ChannelStream drives the channel's frame-error draws.
	ChannelStream int64 = -2
	// arrivalStreams is the first stream of the arrival-process domain.
	arrivalStreams int64 = 1 << 32
)

// ArrivalStream is station i's arrival-process stream. It depends only
// on i, never on the station count.
func ArrivalStream(i int) int64 { return arrivalStreams + int64(i) }

// NewRNG returns a generator seeded with seed, for consumers outside the
// simulators' per-station streams (topology draws, tests).
func NewRNG(seed int64) *RNG { return NewStream(seed, rootStream) }

// NewStream returns the generator for (seed, stream).
func NewStream(seed, stream int64) *RNG {
	g := &RNG{}
	g.Reseed(seed, stream)
	return g
}

// golden is the SplitMix64 increment, 2⁶⁴/φ rounded to odd.
const golden uint64 = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 finaliser, a bijection with full avalanche.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Reseed reinitialises g in place to the stream NewStream(seed, stream)
// returns. It allocates nothing.
//
// The two PCG state words are consecutive outputs of a SplitMix64
// sequence whose start is the finalised seed, advanced two steps per
// stream: distinct streams of one seed use disjoint sequence positions,
// and the finaliser decorrelates adjacent seeds and streams, so no two
// generators start on related LCG states.
func (g *RNG) Reseed(seed, stream int64) {
	x := mix64(uint64(seed)) + uint64(stream)*2*golden + golden
	g.src.Seed(mix64(x), mix64(x+golden))
}

// Float64 returns a uniform draw in [0,1). It is the body of
// rand.Rand.Float64 on the PCG itself, so the draw is the stdlib's and
// the PCG's Uint64 is inlined instead of called through rand.Source.
func (g *RNG) Float64() float64 { return float64(g.src.Uint64()<<11>>11) / (1 << 53) }

// Intn returns a uniform draw in [0,n). n must be positive.
func (g *RNG) Intn(n int) int { return rand.New(&g.src).IntN(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return rand.New(&g.src).Int64() }

// Bernoulli reports true with probability p.
func (g *RNG) Bernoulli(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	default:
		return g.Float64() < p
	}
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials: P(k) = p·(1−p)^k for k = 0, 1, 2, …
//
// This is exactly the "attempt with probability p in each slot" contention
// window of p-persistent CSMA: a node draws Geometric(p) idle slots to wait
// before its next attempt.
func (g *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return math.MaxInt32 // effectively never; callers clamp p away from 0
	}
	return GeometricFromUniform(g.Float64(), p)
}

// GeometricFromUniform maps one uniform draw u ∈ [0,1) to a Geometric(p)
// variate by inverse transform: k = floor(ln(1-u) / ln(1-p)). 1-u is
// uniform on (0,1], so the argument of log is never zero. It consumes
// exactly the one uniform it is given, so Geometric(p) is
// GeometricFromUniform(Float64(), p) draw for draw.
func GeometricFromUniform(u, p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return math.MaxInt32
	}
	return GeometricFromUniformLogQ(u, math.Log1p(-p))
}

// GeometricFromUniformLogQ is GeometricFromUniform with the constant
// denominator ln(1-p) precomputed by the caller — the backoff draw runs
// once per station per busy period, and recomputing a log for a
// parameter that changes only on controller updates is measurable in
// sweep profiles. logQ must equal math.Log1p(-p) exactly (cache the
// value, never a reciprocal: a multiply would round differently and
// change draws). logQ must be finite and negative, i.e. p ∈ (0, 1).
//
// The result is always geometricExact(u, logQ). A table-driven ln(1-u)
// answers whenever its quotient lies far enough from an integer that
// the exact quotient has the same floor; otherwise the exact form
// decides. With L = ln(1−u), B the fast logarithm and A math.Log1p's:
//   - |B − L| < 0.7·2⁻²⁸: the quadratic drops r³/3 − r⁴/4 + …, under
//     0.67·2⁻²⁸ for |r| ≤ 2⁻⁹, and rounding (the table, r, the sum, and
//     fl(1−u), which rounds only for u < ½, by at most 2⁻⁵⁴) adds under
//     2⁻⁴⁴;
//   - |A − L| < |A|·2⁻⁵², as math.Log1p is within one ulp;
//   - each division by logQ rounds by at most 2⁻⁵³ relative.
//
// So the two quotients differ by less than (0.7·2⁻²⁸ + |B|·2⁻⁵⁰)/|logQ|.
// When q = B/logQ is further than (2⁻²⁸ + |B|·2⁻⁵⁰)/|logQ| from every
// integer, both floors agree; the slack absorbs the rounding of the
// test itself. At p ≥ 10⁻³ fewer than one draw in 10⁵ falls back.
func GeometricFromUniformLogQ(u, logQ float64) int {
	if k, ok := geometricFast(u, logQ); ok {
		return k
	}
	return geometricExact(u, logQ)
}

// geometricFast is the table-driven draw. It reports false when q lies
// within the margin of an integer, or u or logQ is out of range.
func geometricFast(u, logQ float64) (int, bool) {
	if !(u >= 0 && u < 1) {
		return 0, false
	}
	// 1−u = 2^e·m with m ∈ [1, 2) and e ≥ −53; c is the midpoint of m's
	// 1/256-wide table cell, so r = m/c − 1 has |r| ≤ 2⁻⁹.
	b := math.Float64bits(1 - u)
	e := int64(b>>52) - 1023
	cell := &logTable[(b>>44)&0xff]
	r := math.Float64frombits(b&(1<<52-1)|1023<<52)*cell.inv - 1
	l := float64(e)*math.Ln2 + cell.ln + (r - 0.5*r*r)
	q := l / logQ
	k := math.Floor(q)
	// The distance from q to the nearest integer, without a branch that
	// a uniform u would mispredict half the time.
	d := math.Abs(q - math.RoundToEven(q))
	// NaN (a bad logQ) fails the comparison and takes the exact path.
	if d*-logQ > 0x1p-28-l*0x1p-50 {
		return clampGeometric(k), true
	}
	return 0, false
}

// geometricExact is the definition of the draw: ⌊ln(1−u)/ln(1−p)⌋ with
// math.Log1p, clamped to [0, MaxInt32].
func geometricExact(u, logQ float64) int {
	return clampGeometric(math.Floor(math.Log1p(-u) / logQ))
}

func clampGeometric(k float64) int {
	if k < 0 {
		return 0
	}
	if k > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(k)
}

// logTable holds, for each 1/256-wide cell of the mantissa range
// [1, 2), the rounded inverse of the cell's midpoint c and ln c
// (−ln of that inverse, so the two stay consistent whatever rounding
// math.Log does).
var logTable = func() (t [256]struct{ inv, ln float64 }) {
	for i := range t {
		t[i].inv = 1 / (1 + (float64(i)+0.5)/256)
		t[i].ln = -math.Log(t[i].inv)
	}
	return t
}()

// UniformWindow returns a uniform draw from [0, cw-1], the standard 802.11
// backoff draw for contention window cw. cw must be ≥ 1.
func (g *RNG) UniformWindow(cw int) int {
	if cw <= 1 {
		return 0
	}
	return rand.New(&g.src).IntN(cw)
}

// Shuffle pseudo-randomly permutes n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { rand.New(&g.src).Shuffle(n, swap) }

// NormFloat64 returns a standard normal draw (used by tests to synthesise
// noisy throughput observations).
func (g *RNG) NormFloat64() float64 { return rand.New(&g.src).NormFloat64() }

// Exp returns an exponentially distributed draw with rate 1 (mean 1).
// Scale by 1/λ for rate λ — the inter-arrival gap of a Poisson process.
func (g *RNG) Exp() float64 { return rand.New(&g.src).ExpFloat64() }
