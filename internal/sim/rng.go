package sim

import (
	"math"
	randv2 "math/rand/v2"
)

// Noise generates bounded multiplicative noise for simulated measurements.
// Real hardware counters jitter run to run; the behavior-model experiments
// need that jitter to be present (otherwise every model is perfect) but
// deterministic (otherwise experiments are not reproducible).
//
// Noise is keyed, not sequential: a draw is a normal from a PCG whose
// state is mixed from (run seed, stream, scope, draw ordinal), so its value
// names what it perturbs instead of counting every earlier draw. Open moves
// a Noise to a scope (the kernel keys each task's draws by the task's
// generation and its transaction ordinal), and Mult takes the scope's next
// ordinal. An added charge re-rolls only the later draws of its own scope.
// The factor 1+N(0,sigma) is clamped to [1-3sigma, 1+3sigma].
type Noise struct {
	seed   uint64 // the run seed, mixed
	key    uint64 // the open scope, mixed from seed, stream and scope
	next   uint64 // the ordinal of the scope's next draw
	sigma  float64
	lo, hi float64 // Mult's clamp
}

// NewNoise returns a Noise with the given seed and relative standard
// deviation sigma (e.g. 0.03 for ~3% jitter), open at scope 0 of stream 0.
// A sigma of 0 disables noise.
func NewNoise(seed int64, sigma float64) *Noise {
	n := &Noise{seed: mix64(uint64(seed)), sigma: sigma}
	n.lo, n.hi = max(1.0-3*sigma, 0.05), 1.0+3*sigma
	n.Open(0, 0)
	return n
}

// Open moves n to the first draw of scope number scope of stream: a stream
// names the perturbed thing (a task's generation), a scope one unit of its
// work (that task's transaction ordinal).
func (n *Noise) Open(stream, scope uint64) {
	n.key = mix64(mix64(n.seed^stream) ^ scope)
	n.next = 0
}

// Mult returns a multiplicative noise factor centered on 1.0: the open
// scope's next draw.
func (n *Noise) Mult() float64 {
	if n == nil || n.sigma == 0 {
		return 1.0
	}
	// The scope's key is the state's high word, the ordinal its low one:
	// the PCG's 128-bit step and output permutation carry the ordinal into
	// every output bit, which a finalizer per draw would only repeat.
	var p randv2.PCG
	p.Seed(n.key, n.next)
	n.next++
	// The ziggurat's common case inline; normal takes the rest.
	u := p.Uint64()
	j, i := int32(u), (u>>32)&127
	z := float64(j) * zig.w[i]
	if absU32(j) >= zig.k[i] {
		z = normal(p, u)
	}
	f := 1.0 + z*n.sigma
	// math.Max(lo, math.Min(hi, f)) without the calls: hi first, then lo,
	// and a NaN fails both comparisons and is returned as it would be.
	if f > n.hi {
		f = n.hi
	}
	if f < n.lo {
		f = n.lo
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

// PCG is the one random source of the simulation's other streams
// (terminals, populations, forests, fault plans, the interleaver, the
// sampler's shuffle): a math/rand/v2 PCG, 16 bytes of state, keyed by
// (seed, key) like Noise. It implements math/rand's Source64, so
// rand.New(NewPCG(seed, key)) has math/rand's method set, and a value held
// in a larger struct is reseeded in place without allocating.
type PCG struct{ p randv2.PCG }

// NewPCG returns a PCG keyed by (seed, key): the key names the stream (a
// terminal's index, a forest slot's refresh), so streams of one seed with
// adjacent keys do not correlate.
func NewPCG(seed int64, key uint64) *PCG {
	p := new(PCG)
	p.Reseed(seed, key)
	return p
}

// Reseed rewinds p to the start of the stream (seed, key).
func (p *PCG) Reseed(seed int64, key uint64) {
	h := mix64(mix64(uint64(seed)) ^ key)
	p.p.Seed(h, mix64(h^0x9E3779B97F4A7C15))
}

// Seed implements math/rand's Source: the stream (seed, 0).
func (p *PCG) Seed(seed int64) { p.Reseed(seed, 0) }

// Uint64 implements math/rand's Source64.
func (p *PCG) Uint64() uint64 { return p.p.Uint64() }

// Int63 implements math/rand's Source.
func (p *PCG) Int63() int64 { return int64(p.p.Uint64() >> 1) }

// mix64 is splitmix64's finalizer: a bijection whose every output bit
// depends on every input bit, so keys one apart land far apart.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// zigR is the start of the normal ziggurat's tail (Marsaglia and Tsang,
// "The Ziggurat Method for Generating Random Variables", 2000), zigV the
// area of each of its 128 layers.
const (
	zigR = 3.442619855899
	zigV = 9.91256303526217e-3
)

// ziggurat holds the layer tables: a draw j in layer i is accepted outright
// when |j| < k[i], scaled by w[i]; f[i] is the density at the layer's edge.
type ziggurat struct {
	k    [128]uint32
	w, f [128]float64
}

// zig is built once, at package initialization, and only read after.
var zig = func() (z ziggurat) {
	const m = 1 << 31
	d, t := zigR, zigR
	q := zigV / math.Exp(-0.5*d*d)
	z.k[0], z.k[1] = uint32(d/q*m), 0
	z.w[0], z.w[127] = q/m, d/m
	z.f[0], z.f[127] = 1, math.Exp(-0.5*d*d)
	for i := 126; i >= 1; i-- {
		d = math.Sqrt(-2 * math.Log(zigV/d+math.Exp(-0.5*d*d)))
		z.k[i+1] = uint32(d / t * m)
		t = d
		z.f[i] = math.Exp(-0.5 * d * d)
		z.w[i] = d / m
	}
	return z
}()

// normal returns a standard normal by the ziggurat from u, p's last draw,
// and p's next draws (p is a copy, so the common case in Mult keeps its PCG
// in registers): its low 32 bits are the signed abscissa and bits 32-38
// the layer, and more than 98 % of draws are accepted outright.
func normal(p randv2.PCG, u uint64) float64 {
	for {
		j, i := int32(u), (u>>32)&127
		x := float64(j) * zig.w[i]
		if absU32(j) < zig.k[i] {
			return x
		}
		if i == 0 {
			// The tail beyond zigR, by Marsaglia's exponential rejection.
			for {
				x = -math.Log(uniform(&p)) / zigR
				if y := -math.Log(uniform(&p)); y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigR + x
			}
			return -zigR - x
		}
		if zig.f[i]+uniform(&p)*(zig.f[i-1]-zig.f[i]) < math.Exp(-0.5*x*x) {
			return x
		}
		u = p.Uint64()
	}
}

// absU32 is |j| as an unsigned 32-bit value (2^31 for math.MinInt32).
func absU32(j int32) uint32 {
	if j < 0 {
		return uint32(-j)
	}
	return uint32(j)
}

// uniform returns a float64 in (0, 1) from p's next 53 bits.
func uniform(p *randv2.PCG) float64 {
	return (float64(p.Uint64()>>11) + 0.5) / (1 << 53)
}
