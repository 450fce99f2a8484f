package tscout

import "tscout/internal/sim"

// SamplingBits is the width of each subsystem's sampling bit field
// (paper §5.3: "TS maintains a 100-bit field for each subsystem").
const SamplingBits = 100

// samplerStreamStride separates the per-subsystem noise-stream seeds from
// each other and from the shared deployment-time stream (Knuth's golden
// 32-bit multiplier keeps neighboring seeds uncorrelated under LCG-style
// sources).
const samplerStreamStride = 0x9E3779B9

// Sampler implements TScout's per-subsystem adjustable sampling. Each
// subsystem has a 100-bit field; a rate of N% sets N randomly-placed bits.
// The random placement de-bursts collection: without shuffling, a
// transaction's query sequence could fall entirely inside the sampling
// window and see much higher latency than its peers. Each thread keeps its
// own offset into the field and advances it per candidate event.
//
// Two noise streams feed field regeneration, and the split is what makes
// live retuning deterministic:
//
//   - SetRate (the controller path) draws from a per-subsystem stream, so
//     the field a subsystem carries after its g-th retune is a pure
//     function of (seed, subsystem, g). A controller retuning subsystem A
//     can never perturb subsystem B's future fields, no matter how its
//     retunes interleave with B's across epochs — with one shared
//     stream, every call shifted every later subsystem's permutation,
//     so archives diverged bit-for-bit the moment two runs disagreed on
//     unrelated retune counts.
//   - SetAllRates (deployment-time bulk init) and the Processor's §3.2
//     overload feedback keep the original shared stream and its historical
//     draw schedule. Both draw at fixed points (init runs before the
//     workload; feedback runs once per drain in AllSubsystems order at
//     deterministic virtual times), and the recorded golden fingerprints
//     pin the exact fields that schedule produced.
type Sampler struct {
	// shared is the deployment-time/feedback stream.
	shared *sim.Noise
	// perSub holds one controller stream per subsystem.
	perSub [NumSubsystems]*sim.Noise
	// gens counts field regenerations per subsystem (any path).
	gens [NumSubsystems]int64
	// bits holds the live sampling fields.
	bits [NumSubsystems][SamplingBits]bool
	// rates holds the configured percentages.
	rates [NumSubsystems]int
}

// NewSampler creates a sampler with all rates at 0%.
func NewSampler(seed int64) *Sampler {
	return &Sampler{
		shared: sim.NewNoise(seed, 0),
		perSub: newPerSubStreams(seed),
	}
}

// newPerSubStreams derives one independent controller stream per
// subsystem from the deployment seed (see the type comment for why the
// streams must be disjoint from the shared one and from each other).
func newPerSubStreams(seed int64) [NumSubsystems]*sim.Noise {
	var perSub [NumSubsystems]*sim.Noise
	for i := range perSub {
		perSub[i] = sim.NewNoise(seed+(int64(i)+1)*samplerStreamStride, 0)
	}
	return perSub
}

// SetRate sets a subsystem's sampling rate in percent (clamped to
// [0,100]) by regenerating its bit field with rate bits set at shuffled
// positions. Rates are adjustable at runtime without redeploying (the
// Fig. 8 experiment and the autopilot controller toggle them live); the
// permutation comes from the subsystem's own noise stream, so retuning one
// subsystem cannot perturb another's fields (see the type comment for the
// determinism argument).
func (s *Sampler) SetRate(sub SubsystemID, rate int) {
	s.setRate(sub, rate, s.perSub[sub])
}

// setRateShared regenerates a field from the shared deployment-time
// stream. It exists only for the two legacy paths — SetAllRates and the
// Processor's overload feedback — whose draw schedule the golden
// fingerprints pin; new callers must use SetRate.
func (s *Sampler) setRateShared(sub SubsystemID, rate int) {
	s.setRate(sub, rate, s.shared)
}

// setRate clamps, records, and regenerates one subsystem's field from the
// given stream.
func (s *Sampler) setRate(sub SubsystemID, rate int, src *sim.Noise) {
	if rate < 0 {
		rate = 0
	}
	if rate > 100 {
		rate = 100
	}
	s.rates[sub] = rate
	var field [SamplingBits]bool
	perm := src.Perm(SamplingBits)
	for i := 0; i < rate; i++ {
		field[perm[i]] = true
	}
	s.bits[sub] = field
	s.gens[sub]++
}

// SetAllRates sets every subsystem to the same rate. It draws from the
// shared deployment-time stream (not the per-subsystem controller
// streams), preserving the historical draw schedule that the recorded
// golden fingerprints depend on.
func (s *Sampler) SetAllRates(rate int) {
	for _, sub := range AllSubsystems {
		s.setRateShared(sub, rate)
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
