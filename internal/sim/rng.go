package sim

import "math/rand"

// Noise generates bounded multiplicative noise for simulated measurements.
// Real hardware counters jitter run to run; the behavior-model experiments
// need that jitter to be present (otherwise every model is perfect) but
// deterministic (otherwise experiments are not reproducible). Noise is a
// thin wrapper over math/rand with a log-normal-ish multiplier clamped to
// [1-3sigma, 1+3sigma].
type Noise struct {
	rng   *rand.Rand
	sigma float64
	// draws counts consuming calls on the underlying stream. Two runs that
	// made the same draw sequence report the same count, so per-stream draw
	// counters are a cheap fingerprint of schedule determinism (the
	// multi-core regression suite compares them across repeated runs).
	draws uint64
}

// NewNoise returns a Noise source with the given seed and relative standard
// deviation sigma (e.g. 0.03 for ~3% jitter). A sigma of 0 disables noise.
func NewNoise(seed int64, sigma float64) *Noise {
	return &Noise{rng: rand.New(rand.NewSource(seed)), sigma: sigma}
}

// Mult returns a multiplicative noise factor centered on 1.0.
func (n *Noise) Mult() float64 {
	if n == nil || n.sigma == 0 {
		return 1.0
	}
	n.draws++
	f := 1.0 + n.rng.NormFloat64()*n.sigma
	lo, hi := 1.0-3*n.sigma, 1.0+3*n.sigma
	if lo < 0.05 {
		lo = 0.05
	}
	// math.Max(lo, math.Min(hi, f)) without the calls: hi first, then lo,
	// and a NaN fails both comparisons and is returned as it would be.
	if f > hi {
		f = hi
	}
	if f < lo {
		f = lo
	}
	return f
}

// Apply perturbs v by one sample of multiplicative noise.
func (n *Noise) Apply(v float64) float64 { return v * n.Mult() }

// ApplyNS perturbs a nanosecond quantity, keeping it non-negative.
func (n *Noise) ApplyNS(ns int64) int64 {
	v := int64(float64(ns) * n.Mult())
	if v < 0 {
		return 0
	}
	return v
}

// Perm returns a random permutation of [0,m).
func (n *Noise) Perm(m int) []int {
	n.draws++
	return n.rng.Perm(m)
}

// Draws returns how many consuming calls the stream has served. Identical
// schedules consume identically, so equal draw counts across repeated runs
// (per stream) witness a deterministic schedule.
func (n *Noise) Draws() uint64 {
	if n == nil {
		return 0
	}
	return n.draws
}
