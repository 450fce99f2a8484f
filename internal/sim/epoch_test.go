package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestCPUTimelinesBasics(t *testing.T) {
	tl := NewCPUTimelines(3)
	if tl.NumCPUs() != 3 {
		t.Fatalf("NumCPUs = %d", tl.NumCPUs())
	}
	tl.Advance(0, 100)
	tl.Advance(1, 300)
	tl.Advance(2, 200)
	tl.Advance(2, -50) // ignored
	if got := tl.Makespan(); got != 300 {
		t.Fatalf("Makespan = %d, want 300", got)
	}
	if got := tl.Frontier(); got != 100 {
		t.Fatalf("Frontier = %d, want 100", got)
	}
	if w := tl.AdvanceTo(0, 250); w != 150 {
		t.Fatalf("AdvanceTo waited %d, want 150", w)
	}
	if w := tl.AdvanceTo(1, 250); w != 0 {
		t.Fatalf("AdvanceTo past clock waited %d, want 0", w)
	}
	tl.Reset()
	if tl.Makespan() != 0 {
		t.Fatalf("Reset left makespan %d", tl.Makespan())
	}
	// Out-of-range CPUs clamp to 0 rather than panic.
	tl.Advance(-1, 10)
	tl.Advance(99, 10)
	if tl.Now(0) != 20 {
		t.Fatalf("clamped advances landed on %d, want 20 on cpu 0", tl.Now(0))
	}
}

func TestCPUTimelinesClampsZero(t *testing.T) {
	tl := NewCPUTimelines(0)
	if tl.NumCPUs() != 1 {
		t.Fatalf("NumCPUs = %d, want clamp to 1", tl.NumCPUs())
	}
}

// TestEpochBarrierMergeOrder: deferred events apply in (AtNS, CPU, seq)
// order regardless of the order they were deferred in.
func TestEpochBarrierMergeOrder(t *testing.T) {
	tl := NewCPUTimelines(4)
	e := NewEpochs(tl, 1000)
	var got []int
	rec := func(id int) func(int64) { return func(int64) { got = append(got, id) } }

	// Deferred deliberately out of time order and out of CPU order.
	e.Defer(2, 500, rec(3))
	e.Defer(0, 700, rec(4))
	e.Defer(1, 300, rec(2))
	e.Defer(3, 100, rec(0))
	e.Defer(3, 100, rec(1)) // same (AtNS, CPU): per-CPU deferral order ties
	e.Defer(0, 700, rec(5))

	if n := e.Barrier(); n != 6 {
		t.Fatalf("Barrier applied %d events, want 6", n)
	}
	want := []int{0, 1, 2, 3, 4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("barrier order = %v, want %v", got, want)
	}
	if e.Index() != 1 {
		t.Fatalf("epoch index = %d after one barrier", e.Index())
	}
	if e.Applied() != 6 {
		t.Fatalf("Applied = %d", e.Applied())
	}
}

// TestEpochBarrierCPUTieBreak: equal timestamps on different CPUs order by
// CPU index, not by deferral arrival.
func TestEpochBarrierCPUTieBreak(t *testing.T) {
	tl := NewCPUTimelines(4)
	e := NewEpochs(tl, 1000)
	var got []int
	for _, cpu := range []int{3, 1, 2, 0} {
		c := cpu
		e.Defer(c, 42, func(int64) { got = append(got, c) })
	}
	e.Barrier()
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("tie-break order = %v, want by CPU", got)
	}
}

// TestEpochMergeDeterministic: any permutation of per-CPU deferral
// interleavings produces the same barrier order, as long as each CPU's own
// deferrals stay in its program order — the property that makes the
// schedule independent of host goroutine interleaving.
func TestEpochMergeDeterministic(t *testing.T) {
	const cpus = 4
	const perCPU = 8
	type ev struct{ cpu, i int }
	baseline := func(interleave *rand.Rand) []ev {
		tl := NewCPUTimelines(cpus)
		e := NewEpochs(tl, 10_000)
		var got []ev
		next := make([]int, cpus)
		remaining := cpus * perCPU
		for remaining > 0 {
			c := interleave.Intn(cpus)
			if next[c] >= perCPU {
				continue
			}
			i := next[c]
			next[c]++
			remaining--
			// Event times are a fixed function of (cpu, i): the schedule's
			// content does not depend on the interleaving, only the order
			// Defer happened to be called in does.
			at := int64((i*37+c*13)%50) * 10
			cc, ii := c, i
			e.Defer(cc, at, func(int64) { got = append(got, ev{cc, ii}) })
		}
		e.Barrier()
		return got
	}
	first := baseline(rand.New(rand.NewSource(1)))
	for seed := int64(2); seed < 8; seed++ {
		if got := baseline(rand.New(rand.NewSource(seed))); !reflect.DeepEqual(got, first) {
			t.Fatalf("interleaving seed %d changed the barrier order", seed)
		}
	}
}

func TestEpochSkipTo(t *testing.T) {
	tl := NewCPUTimelines(2)
	e := NewEpochs(tl, 1000)
	e.SkipTo(4500)
	if e.Index() != 4 || e.Start() != 4000 || e.End() != 5000 {
		t.Fatalf("SkipTo landed at epoch %d [%d,%d)", e.Index(), e.Start(), e.End())
	}
	e.SkipTo(100) // never rewinds
	if e.Index() != 4 {
		t.Fatalf("SkipTo rewound to %d", e.Index())
	}
	// Refuses to skip over deferred events.
	e.Defer(0, 4600, func(int64) {})
	e.SkipTo(9000)
	if e.Index() != 4 {
		t.Fatalf("SkipTo skipped %d pending events", len(e.events))
	}
	e.Barrier()
	if e.Index() != 5 {
		t.Fatalf("index %d after barrier", e.Index())
	}
}

func TestNoiseDraws(t *testing.T) {
	n := NewNoise(7, 0.05)
	if n.Draws() != 0 {
		t.Fatalf("fresh stream draws = %d", n.Draws())
	}
	n.Mult()
	n.ApplyNS(100)
	n.Float64()
	n.Intn(10)
	n.Perm(4)
	if got := n.Draws(); got != 5 {
		t.Fatalf("draws = %d, want 5", got)
	}
	// sigma 0 consumes nothing on Mult/ApplyNS (the documented fast path).
	z := NewNoise(7, 0)
	z.Mult()
	z.ApplyNS(100)
	if z.Draws() != 0 {
		t.Fatalf("sigma-0 stream drew %d", z.Draws())
	}
	if (*Noise)(nil).Draws() != 0 {
		t.Fatalf("nil stream draws nonzero")
	}
}

// TestEpochBarrierTieHeavy pins the merge on a set that is mostly ties —
// three timestamps over four CPUs, sixty events deferred in a scrambled
// order, long enough that the stable sort merges blocks rather than
// insertion-sorting one — to the order (AtNS, CPU, per-CPU deferral order)
// gives, recorded from the sort.SliceStable merge this one replaced.
func TestEpochBarrierTieHeavy(t *testing.T) {
	tl := NewCPUTimelines(4)
	e := NewEpochs(tl, 1000)
	var got []int
	for i := 0; i < 60; i++ {
		label := i
		e.Defer((i*7)%4, int64((i*5)%3)*100, func(int64) { got = append(got, label) })
	}
	e.Barrier()
	want := []int{
		0, 12, 24, 36, 48, 3, 15, 27, 39, 51, 6, 18, 30, 42, 54, 9, 21, 33, 45, 57, // at 0: cpus 0..3
		8, 20, 32, 44, 56, 11, 23, 35, 47, 59, 2, 14, 26, 38, 50, 5, 17, 29, 41, 53, // at 100
		4, 16, 28, 40, 52, 7, 19, 31, 43, 55, 10, 22, 34, 46, 58, 1, 13, 25, 37, 49, // at 200
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tie-heavy barrier order:\n got %v\nwant %v", got, want)
	}
}
