// Package simfix exercises the wall-clock rule inside a simulation-critical
// path: this fixture runs with RelPath "wall-clock/sim", whose "sim" segment
// marks it critical.
package simfix

import (
	"math/rand"
	"time"
)

func Observe() time.Time {
	return time.Now() // want:wall-clock
}

func Wait() {
	time.Sleep(time.Millisecond) // want:wall-clock
}

func Ticker() *time.Ticker {
	return time.NewTicker(time.Second) // want:wall-clock
}

func Draw() int {
	return rand.Intn(10) // want:wall-clock
}

func Shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want:wall-clock
}

// Conversions compute, they do not observe: not flagged.
func Convert(sec int64) time.Time { return time.Unix(sec, 0) }

// A seeded stream is the sanctioned source: not flagged (and the
// non-constant seed keeps seeded-source quiet too).
func Seeded(seed int64) float64 { return rand.New(rand.NewSource(seed)).Float64() }

type clock struct{ now int64 }

// A method named Now on a local type is not time.Now: not flagged.
func (c clock) Now() int64 { return c.now }

func UseLocal(c clock) int64 { return c.Now() }
