package tscout

import (
	"math/rand"

	"tscout/internal/sim"
)

// SamplingBits is the width of each subsystem's sampling bit field
// (paper §5.3: "TS maintains a 100-bit field for each subsystem").
const SamplingBits = 100

// Sampler implements TScout's per-subsystem adjustable sampling. Each
// subsystem has a 100-bit field; a rate of N% sets N randomly-placed bits.
// The random placement de-bursts collection: without shuffling, a
// transaction's query sequence could fall entirely inside the sampling
// window and see much higher latency than its peers. Each thread keeps its
// own offset into the field and advances it per candidate event.
//
// Each subsystem's bit positions are shuffled once, at construction, and a
// rate of N% sets the first N positions of that order. A field is therefore
// a pure function of (seed, subsystem, rate): no retune, on any subsystem
// and in any order, changes another subsystem's field, and lowering a rate
// only clears bits.
type Sampler struct {
	// order holds each subsystem's shuffled bit positions.
	order [NumSubsystems][SamplingBits]uint8
	// bits holds the live sampling fields.
	bits [NumSubsystems][SamplingBits]bool
	// rates holds the configured percentages.
	rates [NumSubsystems]int
}

// NewSampler creates a sampler with all rates at 0%, shuffling each
// subsystem's bit positions from the PCG stream (seed, subsystem).
func NewSampler(seed int64) *Sampler {
	s := &Sampler{}
	var src sim.PCG
	rng := rand.New(&src)
	for _, sub := range AllSubsystems {
		src.Reseed(seed, uint64(sub))
		order := &s.order[sub]
		for i := range order {
			order[i] = uint8(i)
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	return s
}

// SetRate sets a subsystem's sampling rate in percent (clamped to
// [0,100]) by setting the first rate positions of its shuffled order.
// Rates are adjustable at runtime without redeploying (the Fig. 8
// experiment, the autopilot controller and the Processor's §3.2 feedback
// retune them live).
func (s *Sampler) SetRate(sub SubsystemID, rate int) {
	rate = min(max(rate, 0), 100)
	s.rates[sub] = rate
	s.bits[sub] = [SamplingBits]bool{}
	for _, pos := range s.order[sub][:rate] {
		s.bits[sub][pos] = true
	}
}

// SetAllRates sets every subsystem to the same rate.
func (s *Sampler) SetAllRates(rate int) {
	for _, sub := range AllSubsystems {
		s.SetRate(sub, rate)
	}
}

// Rate returns a subsystem's configured rate in percent.
func (s *Sampler) Rate(sub SubsystemID) int { return s.rates[sub] }

// ShouldSample consults the bit at *offset for the subsystem and advances
// the offset (wrapping at the field width). The caller owns the offset —
// one per thread, per the paper: "each thread maintains offsets to index
// into the bit fields".
func (s *Sampler) ShouldSample(sub SubsystemID, offset *int) bool {
	bit := s.bits[sub][*offset%SamplingBits]
	*offset = (*offset + 1) % SamplingBits
	return bit
}
