package sim

import (
	"math"
	"testing"
)

// geometricProbes are the attempt probabilities the fast-path tests
// cover: the controller's floor, the paper's 1/4001, typical wTOP values
// and the extremes of (0, 1).
var geometricProbes = []float64{1e-5, 1.0 / 4001, 0.005, 0.1, 0.5, 0.999}

// checkGeometric fails t unless the draw for u equals the exact form.
func checkGeometric(t *testing.T, u, p float64) {
	t.Helper()
	logQ := math.Log1p(-p)
	if got, want := GeometricFromUniformLogQ(u, logQ), geometricExact(u, logQ); got != want {
		t.Fatalf("p=%v u=%v (%#x): fast path %d, exact %d", p, u, math.Float64bits(u), got, want)
	}
}

// boundary returns the smallest u in [0, 1) whose exact draw is at least
// k, by bisection over the bit patterns (ordered like the values for
// non-negative floats), and false when no u < 1 reaches k.
func boundary(k int, logQ float64) (uint64, bool) {
	lo, hi := uint64(0), math.Float64bits(math.Nextafter(1, 0))
	if geometricExact(math.Float64frombits(hi), logQ) < k {
		return 0, false
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if geometricExact(math.Float64frombits(mid), logQ) >= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// TestGeometricFastPathMatchesExact pins the table-driven draw to the
// exact ⌊Log1p(−u)/logQ⌋ where the two are most likely to part: within
// 64 ulps of every integer crossing of the quotient for k ≤ 10⁴, at the
// ends of [0, 1), at a known near-integer quotient, and on random u.
func TestGeometricFastPathMatchesExact(t *testing.T) {
	maxK := 10000
	if testing.Short() {
		maxK = 1000
	}
	for _, p := range geometricProbes {
		logQ := math.Log1p(-p)
		for k := 1; k <= maxK; k++ {
			b, ok := boundary(k, logQ)
			if !ok {
				break
			}
			for d := -64; d <= 64; d++ {
				if v := int64(b) + int64(d); v >= 0 {
					checkGeometric(t, math.Float64frombits(uint64(v)), p)
				}
			}
		}
		checkGeometric(t, 0, p)
		checkGeometric(t, 1-0x1p-53, p)
		g := NewStream(int64(math.Float64bits(p)), 0)
		for i := 0; i < 200000; i++ {
			checkGeometric(t, g.Float64(), p)
		}
	}
	// A quotient within 2⁻⁴⁰ of an integer, where a math.Log quotient
	// and the exact one floor differently.
	checkGeometric(t, 0.8265786341760288, 1.0/4001)
}

// TestGeometricFastPathCovers checks that the fast path answers almost
// every draw at the probabilities the engines use, so the exact
// fallback stays rare.
func TestGeometricFastPathCovers(t *testing.T) {
	for _, p := range []float64{1.0 / 4001, 0.005, 0.1, 0.5} {
		logQ := math.Log1p(-p)
		g := NewStream(7, 0)
		slow := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if _, ok := geometricFast(g.Float64(), logQ); !ok {
				slow++
			}
		}
		if slow > n/10000 {
			t.Errorf("p=%v: %d of %d draws fell back to the exact form", p, slow, n)
		}
	}
}

func FuzzGeometricFromUniformLogQ(f *testing.F) {
	f.Add(uint64(0), math.Float64bits(0.5))
	f.Add(math.Float64bits(1-0x1p-53), math.Float64bits(1e-5))
	f.Add(math.Float64bits(0.8265786341760288), math.Float64bits(1.0/4001))
	f.Add(math.Float64bits(0.25), math.Float64bits(0.999))
	f.Fuzz(func(t *testing.T, ub, pb uint64) {
		u, p := math.Float64frombits(ub), math.Float64frombits(pb)
		logQ := math.Log1p(-p)
		got, want := GeometricFromUniformLogQ(u, logQ), geometricExact(u, logQ)
		if got != want {
			t.Fatalf("u=%v p=%v: fast path %d, exact %d", u, p, got, want)
		}
	})
}
