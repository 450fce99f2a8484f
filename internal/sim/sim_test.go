package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock: got %d", c.Now())
	}
	c.Advance(100)
	c.Advance(-5) // ignored
	if got := c.Now(); got != 100 {
		t.Fatalf("after advance: got %d want 100", got)
	}
	if w := c.AdvanceTo(50); w != 0 {
		t.Fatalf("AdvanceTo past: waited %d want 0", w)
	}
	if w := c.AdvanceTo(250); w != 150 {
		t.Fatalf("AdvanceTo future: waited %d want 150", w)
	}
	if c.Now() != 250 {
		t.Fatalf("after AdvanceTo: got %d want 250", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("after reset: got %d", c.Now())
	}
}

func TestClockMonotonic(t *testing.T) {
	f := func(steps []int32) bool {
		var c Clock
		prev := int64(0)
		for _, s := range steps {
			c.Advance(int64(s))
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseBounds(t *testing.T) {
	n := NewNoise(42, 0.05)
	for i := 0; i < 10000; i++ {
		f := n.Mult()
		if f < 1-3*0.05-1e-9 || f > 1+3*0.05+1e-9 {
			t.Fatalf("noise factor %v outside 3-sigma clamp", f)
		}
	}
}

func TestNoiseDisabled(t *testing.T) {
	n := NewNoise(1, 0)
	if n.Mult() != 1.0 {
		t.Fatalf("sigma=0 must disable noise")
	}
	var nilNoise *Noise
	if nilNoise.Mult() != 1.0 {
		t.Fatalf("nil noise must be identity")
	}
	if nilNoise.ApplyNS(77) != 77 {
		t.Fatalf("nil noise ApplyNS must be identity")
	}
}

func TestNoiseDeterministic(t *testing.T) {
	a, b := NewNoise(7, 0.1), NewNoise(7, 0.1)
	for i := 0; i < 100; i++ {
		if a.Mult() != b.Mult() {
			t.Fatalf("same seed must give same stream at draw %d", i)
		}
	}
}

func TestNoiseMeanNearOne(t *testing.T) {
	n := NewNoise(3, 0.05)
	sum := 0.0
	const trials = 50000
	for i := 0; i < trials; i++ {
		sum += n.Mult()
	}
	mean := sum / trials
	if math.Abs(mean-1.0) > 0.01 {
		t.Fatalf("noise mean %v too far from 1.0", mean)
	}
}

// TestNoiseClampMatchesMathMaxMin holds Mult's two comparisons to the
// expression they replaced, math.Max(lo, math.Min(hi, f)), evaluated here on
// a twin of the stream: the same factor, bit for bit, from the same draws.
func TestNoiseClampMatchesMathMaxMin(t *testing.T) {
	for _, sigma := range []float64{0, 0.03, 0.4} {
		const seed, draws = 21, 1_000_000
		n := NewNoise(seed, sigma)
		twin := rand.New(rand.NewSource(seed))
		clamped := 0
		for i := 0; i < draws; i++ {
			want := 1.0
			if sigma != 0 {
				f := 1.0 + twin.NormFloat64()*sigma
				lo, hi := math.Max(0.05, 1.0-3*sigma), 1.0+3*sigma
				want = math.Max(lo, math.Min(hi, f))
				if want != f {
					clamped++
				}
			}
			if got := n.Mult(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("sigma %v draw %d: Mult = %v, want %v", sigma, i, got, want)
			}
		}
		wantDraws := uint64(draws)
		if sigma == 0 {
			wantDraws = 0
		}
		if n.Draws() != wantDraws {
			t.Errorf("sigma %v: Draws = %d, want %d", sigma, n.Draws(), wantDraws)
		}
		if sigma != 0 && clamped == 0 {
			t.Errorf("sigma %v: no draw reached a bound", sigma)
		}
		// The stream is where its twin is: the clamp consumed nothing extra.
		if sigma != 0 && n.Float64() != twin.Float64() {
			t.Errorf("sigma %v: stream diverged from its twin", sigma)
		}
	}
}

func TestProfileConversions(t *testing.T) {
	p := LargeHW
	ns := p.CyclesToNS(2100)
	if ns != 1000 {
		t.Fatalf("2100 cycles at 2.1GHz: got %dns want 1000ns", ns)
	}
	if got := p.NSToCycles(1000); math.Abs(got-2100) > 1e-9 {
		t.Fatalf("1000ns at 2.1GHz: got %v cycles want 2100", got)
	}
	if p.CyclesToNS(-5) != 0 {
		t.Fatalf("negative cycles must clamp to 0")
	}
}

func TestProfilesDistinct(t *testing.T) {
	if LargeHW.L3CacheBytes <= SmallHW.L3CacheBytes {
		t.Fatalf("LargeHW must have more L3 than SmallHW (paper §6.4)")
	}
	if LargeHW.Cores <= SmallHW.Cores {
		t.Fatalf("LargeHW must have more cores")
	}
	if LargeHW.ClockGHz >= SmallHW.ClockGHz {
		t.Fatalf("SmallHW must have the higher clock: the clock-speed-only " +
			"hardware feature must mislead the models (paper §6.4)")
	}
}

func TestWorkAdd(t *testing.T) {
	a := Work{Instructions: 100, BytesTouched: 64, WorkingSetBytes: 1000, AllocBytes: 8}
	b := Work{Instructions: 50, BytesTouched: 32, WorkingSetBytes: 4000,
		RandomAccessFraction: 0.5, DiskWriteBytes: 512, DiskOps: 1,
		NetSendBytes: 100, NetMessages: 2}
	a.Add(b)
	if a.Instructions != 150 || a.BytesTouched != 96 {
		t.Fatalf("Add must sum scalar work: %+v", a)
	}
	if a.WorkingSetBytes != 4000 {
		t.Fatalf("Add must take max working set: %v", a.WorkingSetBytes)
	}
	if a.RandomAccessFraction != 0.5 {
		t.Fatalf("Add must take max random fraction: %v", a.RandomAccessFraction)
	}
	if a.DiskWriteBytes != 512 || a.DiskOps != 1 || a.NetSendBytes != 100 || a.NetMessages != 2 {
		t.Fatalf("Add must sum IO work: %+v", a)
	}
	if a.IsZero() {
		t.Fatalf("non-empty work must not be zero")
	}
	var z Work
	if !z.IsZero() {
		t.Fatalf("zero value must be zero work")
	}
}
