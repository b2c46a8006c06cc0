package sim

import (
	"math"
	"math/rand/v2"
)

// RNG is a seeded PCG-DXSM generator (math/rand/v2's PCG: a 128-bit LCG
// with a DXSM output permutation) plus the variate helpers the MAC layer
// needs. Every generator is a pure function of a (seed, stream) pair, so
// runs are reproducible, every consumer of a simulation owns a stream
// that no other consumer's draws can perturb, and a generator is one
// 64-byte allocation however it was derived.
//
// An RNG must not be copied: its rand.Rand refers to its own PCG.
type RNG struct {
	src rand.PCG
	r   rand.Rand
	// The padding fills a 64-byte allocation, which the runtime aligns to
	// a cache line: every draw writes src, and simulations running on
	// different cores must not share a line between their generators.
	_ [32]byte
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

// Reuse reseeds g to (seed, stream) and returns it, or returns a new
// generator when g is nil: the arena idiom of the simulators' Reset,
// which keeps reseeding allocation-free once the arena is warm.
func Reuse(g *RNG, seed, stream int64) *RNG {
	if g == nil {
		return NewStream(seed, stream)
	}
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
	g.r = *rand.New(&g.src)
}

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0,n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.IntN(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int64() }

// Bernoulli reports true with probability p.
func (g *RNG) Bernoulli(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	default:
		return g.r.Float64() < p
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
	return GeometricFromUniform(g.r.Float64(), p)
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
func GeometricFromUniformLogQ(u, logQ float64) int {
	k := math.Floor(math.Log1p(-u) / logQ)
	if k < 0 {
		return 0
	}
	if k > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(k)
}

// UniformWindow returns a uniform draw from [0, cw-1], the standard 802.11
// backoff draw for contention window cw. cw must be ≥ 1.
func (g *RNG) UniformWindow(cw int) int {
	if cw <= 1 {
		return 0
	}
	return g.r.IntN(cw)
}

// Shuffle pseudo-randomly permutes n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// NormFloat64 returns a standard normal draw (used by tests to synthesise
// noisy throughput observations).
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Exp returns an exponentially distributed draw with rate 1 (mean 1).
// Scale by 1/λ for rate λ — the inter-arrival gap of a Poisson process.
func (g *RNG) Exp() float64 { return g.r.ExpFloat64() }
