package slotsim

import "math/rand/v2"

// globalRandV2 exercises the math/rand/v2 checks: v2's top-level draws
// share one process-global generator exactly as v1's do.
func globalRandV2() {
	_ = rand.IntN(7)   // want `rand.IntN draws from the process-global generator`
	_ = rand.Float64() // want `rand.Float64 draws from the process-global generator`
	_ = rand.N(10)     // want `rand.N draws from the process-global generator`
}

// ownedRandV2 shows the pattern sim.RNG is built on: a PCG the caller
// seeds, wrapped in a caller-owned Rand, and reseeded in place.
func ownedRandV2() float64 {
	src := rand.NewPCG(1, 2)
	r := rand.New(src)
	x := r.Float64()
	src.Seed(3, 4)
	return x + r.Float64()
}
