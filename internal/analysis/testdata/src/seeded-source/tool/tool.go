// Package tool exercises the seeded-source rule outside internal/, cmd/
// and examples/: a sequential source is allowed there, but not with a
// constant seed, and sim.NewPCG's constant-seed check holds everywhere.
package tool

import (
	"math/rand"

	"tscout/internal/sim"
)

func FixedSeed() *rand.Rand {
	return rand.New(rand.NewSource(42)) // want:seeded-source
}

func ArithmeticSeed() rand.Source {
	return rand.NewSource(40 + 2) // want:seeded-source
}

func FixedPCG() *sim.PCG {
	return sim.NewPCG(9, 0) // want:seeded-source
}

// Seeds that arrive through configuration are not flagged, on either kind
// of source.
func ConfigSeed(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func ConfigPCG(seed int64) *rand.Rand {
	return rand.New(sim.NewPCG(seed, 2))
}
