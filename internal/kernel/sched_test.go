package kernel

import (
	"reflect"
	"testing"

	"tscout/internal/sim"
)

func traceFor(seed int64, counts map[string]int) ([]string, map[string][]int) {
	k := New(sim.LargeHW, 1, 0)
	iv := k.NewInterleaver(seed)
	order := make(map[string][]int)
	for _, name := range []string{"a", "b", "c"} {
		n := counts[name]
		name := name
		iv.AddOn(name, 0, n, func(i int) { order[name] = append(order[name], i) })
	}
	return iv.Run(), order
}

func TestInterleaverDeterministic(t *testing.T) {
	counts := map[string]int{"a": 20, "b": 13, "c": 7}
	t1, _ := traceFor(42, counts)
	t2, _ := traceFor(42, counts)
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", t1, t2)
	}
	t3, _ := traceFor(43, counts)
	if reflect.DeepEqual(t1, t3) {
		t.Fatalf("seeds 42 and 43 produced identical %d-tick schedules", len(t1))
	}
}

func TestInterleaverRunsEveryQuantumInOrder(t *testing.T) {
	counts := map[string]int{"a": 9, "b": 1, "c": 30}
	trace, order := traceFor(7, counts)
	if len(trace) != 40 {
		t.Fatalf("trace has %d ticks, want 40", len(trace))
	}
	for name, n := range counts {
		got := order[name]
		if len(got) != n {
			t.Fatalf("workload %s ran %d quanta, want %d", name, len(got), n)
		}
		for i, q := range got {
			if q != i {
				t.Fatalf("workload %s quantum %d ran out of order (index %d)", name, q, i)
			}
		}
	}
}

func TestInterleaverChargesContextSwitches(t *testing.T) {
	k := New(sim.LargeHW, 1, 0)
	watch(k)
	iv := k.NewInterleaver(5)
	iv.AddOn("x", 0, 10, func(int) {})
	iv.AddOn("y", 0, 10, func(int) {})
	trace := iv.Run()
	want := int64(0)
	for i := 1; i < len(trace); i++ {
		if trace[i] != trace[i-1] {
			want++
		}
	}
	if _, got := tally(observed(t, k), evCtxSwitch); got != want {
		t.Fatalf("charged %d context switches, trace implies %d", got, want)
	}
	if want == 0 {
		t.Fatalf("schedule never interleaved: %v", trace)
	}
}
