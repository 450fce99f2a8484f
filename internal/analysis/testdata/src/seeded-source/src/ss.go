// Package ssfix exercises the seeded-source rule outside the
// simulation-critical trees: constant seeds and the process-global source
// are flagged; config-supplied seeds are the sanctioned path.
package ssfix

import "math/rand"

func FixedSeed() *rand.Rand {
	return rand.New(rand.NewSource(42)) // want:seeded-source
}

const defaultSeed = 7

// Named constants are still compile-time constants.
func NamedConstSeed() rand.Source {
	return rand.NewSource(defaultSeed) // want:seeded-source
}

func ArithmeticSeed() rand.Source {
	return rand.NewSource(40 + 2) // want:seeded-source
}

// Seeds that arrive through configuration are the point: not flagged.
func ConfigSeed(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func GlobalDraw() float64 {
	return rand.Float64() // want:seeded-source
}

func GlobalPerm(n int) []int {
	return rand.Perm(n) // want:seeded-source
}

// Methods on an owned *rand.Rand are not the global source: not flagged.
func OwnedDraw(r *rand.Rand) float64 { return r.Float64() }
