// Package ncfix holds the same calls outside any simulation-critical path
// (RelPath "wall-clock/noncritical"): wall-clock stays silent here, and the
// global-rand half of the contract belongs to seeded-source — the rules
// partition so one line never earns two findings.
package ncfix

import (
	"math/rand"
	"time"
)

// Outside the critical trees the wall clock is legal.
func Observe() time.Time { return time.Now() }

func Draw() int {
	return rand.Intn(10) // want:seeded-source
}
