package sim

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestGeometricMean(t *testing.T) {
	// E[Geometric(p)] = (1-p)/p. Check within sampling tolerance.
	for _, p := range []float64{0.05, 0.1, 0.3, 0.5, 0.9} {
		g := NewRNG(42)
		const n = 200000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(g.Geometric(p))
		}
		mean := sum / n
		want := (1 - p) / p
		se := math.Sqrt((1-p)/(p*p)) / math.Sqrt(n) // std error of the mean
		if math.Abs(mean-want) > 6*se+1e-9 {
			t.Errorf("p=%v: mean %v, want %v ± %v", p, mean, want, 6*se)
		}
	}
}

func TestGeometricEdgeCases(t *testing.T) {
	g := NewRNG(1)
	if got := g.Geometric(1); got != 0 {
		t.Errorf("Geometric(1) = %d, want 0", got)
	}
	if got := g.Geometric(1.5); got != 0 {
		t.Errorf("Geometric(1.5) = %d, want 0", got)
	}
	if got := g.Geometric(0); got != math.MaxInt32 {
		t.Errorf("Geometric(0) = %d, want MaxInt32", got)
	}
	if got := g.Geometric(-0.1); got != math.MaxInt32 {
		t.Errorf("Geometric(-0.1) = %d, want MaxInt32", got)
	}
}

func TestGeometricZeroProbabilityOfNegative(t *testing.T) {
	prop := func(seed int64, praw uint8) bool {
		p := 0.01 + 0.98*float64(praw)/255
		g := NewRNG(seed)
		for i := 0; i < 100; i++ {
			if g.Geometric(p) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulli(t *testing.T) {
	g := NewRNG(5)
	if g.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !g.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Bernoulli(0.25) frequency %v", frac)
	}
}

func TestUniformWindow(t *testing.T) {
	g := NewRNG(9)
	if got := g.UniformWindow(1); got != 0 {
		t.Errorf("UniformWindow(1) = %d, want 0", got)
	}
	if got := g.UniformWindow(0); got != 0 {
		t.Errorf("UniformWindow(0) = %d, want 0", got)
	}
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := g.UniformWindow(8)
		if v < 0 || v > 7 {
			t.Fatalf("UniformWindow(8) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Errorf("UniformWindow(8) hit %d distinct values, want 8", len(seen))
	}
}

func TestRNGReproducible(t *testing.T) {
	a, b := NewRNG(1234), NewRNG(1234)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

// Reseeding in place must reproduce the fresh-construction stream
// exactly — the arena-reuse contract — including when the generator is
// mid-stream.
func TestReseedMatchesFresh(t *testing.T) {
	g := NewRNG(11)
	for i := 0; i < 123; i++ {
		g.Float64() // advance mid-stream
	}
	g.Reseed(77, 5)
	fresh := NewStream(77, 5)
	for i := 0; i < 2000; i++ {
		if a, b := g.Float64(), fresh.Float64(); a != b {
			t.Fatalf("draw %d after reseed: %v vs %v", i, a, b)
		}
	}
}

// A generator is its PCG state and nothing else: the simulators embed
// one per station, so every extra byte is paid per station.
func TestRNGSize(t *testing.T) {
	if got := unsafe.Sizeof(RNG{}); got != 16 {
		t.Errorf("sizeof(RNG) = %d B, want 16", got)
	}
}

// A copy continues the original's stream from the point of the copy,
// and draws from the original leave the copy untouched.
func TestRNGCopyContinuesStream(t *testing.T) {
	orig := NewStream(21, 3)
	for i := 0; i < 17; i++ {
		orig.Float64()
	}
	cp := *orig
	want := make([]float64, 64)
	for i := range want {
		want[i] = orig.Float64()
	}
	for i := 0; i < 1000; i++ {
		orig.Float64() // must not advance the copy
	}
	for i, w := range want {
		if got := cp.Float64(); got != w {
			t.Fatalf("draw %d of the copy: %v, want %v", i, got, w)
		}
	}
}

// Geometric must consume exactly one uniform per draw and map it through
// GeometricFromUniform — the property that lets PPersistent draw through
// the cached-denominator form without perturbing simulation results.
func TestGeometricFromUniformMatchesGeometric(t *testing.T) {
	for _, p := range []float64{0.001, 0.02, 0.3, 0.999} {
		direct := NewRNG(5)
		uniforms := NewRNG(5)
		for i := 0; i < 128; i++ {
			if got, want := GeometricFromUniform(uniforms.Float64(), p), direct.Geometric(p); got != want {
				t.Fatalf("p=%v draw %d: from uniform %d ≠ direct %d", p, i, got, want)
			}
		}
	}
}

func TestGeometricFromUniformEdgeCases(t *testing.T) {
	if got := GeometricFromUniform(0.5, 1); got != 0 {
		t.Errorf("p=1: got %d, want 0", got)
	}
	if got := GeometricFromUniform(0.5, 1.5); got != 0 {
		t.Errorf("p>1: got %d, want 0", got)
	}
	if got := GeometricFromUniform(0.5, 0); got != 1<<31-1 {
		t.Errorf("p=0: got %d, want MaxInt32", got)
	}
	if got := GeometricFromUniform(0, 0.5); got != 0 {
		t.Errorf("u=0: got %d, want 0", got)
	}
}

// BenchmarkRNGSeed measures the in-place PCG reseed the simulator arenas
// run once per station per replication.
func BenchmarkRNGSeed(b *testing.B) {
	g := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Reseed(int64(i), 7)
	}
}
