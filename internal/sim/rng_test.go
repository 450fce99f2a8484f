package sim

import (
	"math"
	"math/rand"
	"testing"
)

// noiseStats summarizes clamped factors: their mean, standard deviation
// and the fraction that sat on a clamp bound.
type noiseStats struct {
	n, sum, sumSq, clamped float64
}

func (s *noiseStats) add(f, lo, hi float64) {
	s.n++
	s.sum += f
	s.sumSq += f * f
	if f == lo || f == hi {
		s.clamped++
	}
}

func (s noiseStats) mean() float64 { return s.sum / s.n }
func (s noiseStats) sd() float64   { return math.Sqrt(s.sumSq/s.n - s.mean()*s.mean()) }
func (s noiseStats) clampFrac() float64 {
	return s.clamped / s.n
}

// corr is the Pearson correlation of the pairs (xs[i], ys[i]).
func corr(xs, ys []float64) float64 {
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	n := float64(len(xs))
	return (sxy/n - sx/n*sy/n) / math.Sqrt((sxx/n-sx/n*sx/n)*(syy/n-sy/n*sy/n))
}

// TestKeyedNoiseDistribution draws 10^6 keyed factors, 100 streams of 100
// scopes of 100 draws, and holds them to the sequential math/rand stream
// Noise drew from before it was keyed: the mean within 2e-4 (about 4.7
// standard errors of the difference at sigma 0.03), the standard deviation
// within 0.5 % and the clamp fraction within 3e-4 (about 4 standard errors
// of the difference around its 0.27 %). Along each key axis, the draws one
// apart (ordinals in a scope, scopes of a stream, streams) correlate by
// less than 0.005 in magnitude, five standard errors at this many pairs.
func TestKeyedNoiseDistribution(t *testing.T) {
	const sigma, side = 0.03, 100
	lo, hi := 1-3*sigma, 1+3*sigma

	var old noiseStats
	seq := rand.New(rand.NewSource(21))
	for i := 0; i < side*side*side; i++ {
		old.add(math.Max(lo, math.Min(hi, 1+seq.NormFloat64()*sigma)), lo, hi)
	}

	var keyed noiseStats
	n := NewNoise(21, sigma)
	draws := make([]float64, side*side*side) // [stream][scope][ordinal]
	for g := 0; g < side; g++ {
		for s := 0; s < side; s++ {
			n.Open(uint64(g), uint64(s))
			for d := 0; d < side; d++ {
				f := n.Mult()
				keyed.add(f, lo, hi)
				draws[(g*side+s)*side+d] = f
			}
		}
	}

	if d := math.Abs(keyed.mean() - old.mean()); d > 2e-4 {
		t.Errorf("mean %.6f, sequential %.6f: %.2g apart, want under 2e-4", keyed.mean(), old.mean(), d)
	}
	if r := keyed.sd() / old.sd(); math.Abs(r-1) > 0.005 {
		t.Errorf("s.d. %.6f, sequential %.6f: ratio %.4f, want within 0.5 %%", keyed.sd(), old.sd(), r)
	}
	if d := math.Abs(keyed.clampFrac() - old.clampFrac()); d > 3e-4 {
		t.Errorf("clamp fraction %.5f, sequential %.5f: want within 3e-4", keyed.clampFrac(), old.clampFrac())
	}
	t.Logf("keyed mean %.6f s.d. %.6f clamped %.5f; sequential %.6f %.6f %.5f",
		keyed.mean(), keyed.sd(), keyed.clampFrac(), old.mean(), old.sd(), old.clampFrac())

	for _, axis := range []struct {
		name   string
		stride int
	}{{"ordinal", 1}, {"scope", side}, {"stream", side * side}} {
		var xs, ys []float64
		for i := range draws {
			// i and i+stride are one apart on this axis when i's
			// coordinate on it is not the last.
			if (i/axis.stride)%side != side-1 {
				xs = append(xs, draws[i])
				ys = append(ys, draws[i+axis.stride])
			}
		}
		if c := corr(xs, ys); math.Abs(c) > 0.005 {
			t.Errorf("adjacent %ss correlate at %.4f, want under 0.005", axis.name, c)
		} else {
			t.Logf("adjacent %ss: lag-1 correlation %.4f over %d pairs", axis.name, c, len(xs))
		}
	}
}

// TestPCGKeyedStreams holds NewPCG to what its callers rely on: a stream
// is a function of (seed, key), Reseed rewinds it in place, and keys one
// apart give different streams.
func TestPCGKeyedStreams(t *testing.T) {
	a, b := rand.New(NewPCG(77, 3)), rand.New(NewPCG(77, 3))
	for i := 0; i < 100; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("draw %d: %d != %d from one (seed, key)", i, x, y)
		}
	}
	p := NewPCG(77, 3)
	first := p.Uint64()
	p.Uint64()
	p.Reseed(77, 3)
	if p.Uint64() != first {
		t.Fatalf("Reseed did not rewind the stream")
	}
	p.Reseed(77, 4)
	if p.Uint64() == first {
		t.Fatalf("keys 3 and 4 share a first draw")
	}
	var q PCG
	q.Seed(77)
	if q.Uint64() != NewPCG(77, 0).Uint64() {
		t.Fatalf("Seed(s) is not the stream (s, 0)")
	}
}

// BenchmarkNoiseMult is the host cost of one keyed noise draw (ns/op is
// ns a draw); it allocates nothing.
func BenchmarkNoiseMult(b *testing.B) {
	n := NewNoise(7, 0.03)
	b.ReportAllocs()
	var s float64
	for i := 0; i < b.N; i++ {
		s += n.Mult()
	}
	if s == 0 {
		b.Fatal("no draws")
	}
}

// TestNormalTails holds the ziggurat to the standard normal's two-sided
// tail masses beyond 1, 2 and 3 over 10^6 draws, each within five standard
// errors: the layers' wedges and the tail beyond zigR are where a slip in
// the rare path would show.
func TestNormalTails(t *testing.T) {
	const draws = 1_000_000
	var p PCG
	p.Reseed(5, 0)
	var beyond [3]float64
	for i := 0; i < draws; i++ {
		u := p.Uint64()
		z := math.Abs(normal(p.p, u))
		for k := range beyond {
			if z > float64(k+1) {
				beyond[k]++
			}
		}
	}
	for k, want := range []float64{0.31731, 0.04550, 0.00270} {
		got := beyond[k] / draws
		if se := math.Sqrt(want * (1 - want) / draws); math.Abs(got-want) > 5*se {
			t.Errorf("P(|z| > %d) = %.5f, want %.5f ± %.5f", k+1, got, want, 5*se)
		}
	}
}
