// Package ssfix exercises the seeded-source rule inside the trees whose
// streams must be keyed PCGs (its path has an internal segment): every
// rand.NewSource is flagged, a constant seed given to sim.NewPCG is
// flagged, and the process-global source is flagged; a config seed with a
// constant key is the sanctioned path.
package ssfix

import (
	"math/rand"

	"tscout/internal/sim"
)

func FixedSeed() *rand.Rand {
	return rand.New(sim.NewPCG(42, 0)) // want:seeded-source
}

const defaultSeed = 7

// Named constants are still compile-time constants.
func NamedConstSeed() *sim.PCG {
	return sim.NewPCG(defaultSeed, 3) // want:seeded-source
}

func ArithmeticSeed() *sim.PCG {
	return sim.NewPCG(40+2, 0) // want:seeded-source
}

// Seeds that arrive through configuration are the point: not flagged, and
// the key, which names the stream, may be a constant.
func ConfigSeed(seed int64) *rand.Rand {
	return rand.New(sim.NewPCG(seed, 1))
}

// A sequential source is flagged here whatever its seed.
func ConfigSeedSequential(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want:seeded-source
}

// One finding a line: a constant-seeded sequential source is the
// sequential-source finding.
func FixedSeedSequential() rand.Source {
	return rand.NewSource(42) // want:seeded-source
}

func GlobalDraw() float64 {
	return rand.Float64() // want:seeded-source
}

func GlobalPerm(n int) []int {
	return rand.Perm(n) // want:seeded-source
}

// Methods on an owned *rand.Rand are not the global source: not flagged.
func OwnedDraw(r *rand.Rand) float64 { return r.Float64() }
