package kernel

import (
	"math/rand"
	"testing"
)

// FuzzPerCPUFaultOrder locks the per-CPU hit-indexing contract: a fault
// plan applies identically — same per-CPU delivery
// census, same per-CPU handler run counts, same applied-fault totals — no
// matter how the host interleaves the CPUs' delivery sequences. Each fuzz
// input derives a plan and two independent pseudo-random global merge
// orders of the same per-CPU sequences; any divergence between the two
// executions is a determinism bug in FaultInjector's counter bookkeeping.
//
// Migrate and lifecycle faults are stripped from the plan: a migrated task
// shares its new CPU with that CPU's own task, and ordering two tasks on
// one CPU is the epoch driver's job (it serializes them in virtual time) —
// this harness only models cross-CPU jitter. The workload-level
// determinism suite covers migration under the real driver.
func FuzzPerCPUFaultOrder(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0))
	f.Add(int64(42), uint8(4), uint8(3))
	f.Add(int64(1337), uint8(8), uint8(7))
	f.Add(int64(-7), uint8(3), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, ncpu uint8, orderSel uint8) {
		numCPUs := 1 + int(ncpu)%8
		const perCPU = 12
		full := GenFaultPlan(seed, 10, perCPU, numCPUs)
		var plan FaultPlan
		for _, fa := range full {
			switch fa.Kind {
			case FaultDropMarker, FaultDupMarker, FaultCounterWrap:
				plan = append(plan, fa)
			}
		}

		run := func(orderSeed int64) ([]int64, []int64, [numFaultKinds]int64) {
			k := testKernel()
			k.SetNumCPUs(numCPUs)
			tasks := make([]*Task, numCPUs)
			left := make([]int, numCPUs)
			var live []int
			for c := range tasks {
				tasks[c] = k.NewTaskOn("w", c)
				tasks[c].Perf().Enable(AllCounters...)
				left[c] = perCPU
				live = append(live, c)
			}
			tp := k.Tracepoint("tp")
			runs := make([]int64, numCPUs)
			tp.Attach(func(tk *Task, args []uint64) int64 {
				runs[tk.CPU()]++
				return 0
			})
			fi := NewFaultInjector(k, plan)
			rng := rand.New(rand.NewSource(orderSeed))
			for len(live) > 0 {
				i := rng.Intn(len(live))
				c := live[i]
				tasks[c].HitTracepoint(tp, nil)
				left[c]--
				if left[c] == 0 {
					live = append(live[:i], live[i+1:]...)
				}
			}
			hits := make([]int64, numCPUs)
			for c := 0; c < numCPUs; c++ {
				hits[c] = fi.CPUHits(c)
			}
			var applied [numFaultKinds]int64
			for kind := FaultKind(0); kind < numFaultKinds; kind++ {
				applied[kind] = fi.Applied(kind)
			}
			return hits, runs, applied
		}

		h1, r1, a1 := run(int64(orderSel))
		h2, r2, a2 := run(int64(orderSel) + 7919)
		for c := 0; c < numCPUs; c++ {
			if h1[c] != h2[c] {
				t.Fatalf("CPUHits(%d) diverged across interleavings: %d vs %d (plan=%+v)", c, h1[c], h2[c], plan)
			}
			if r1[c] != r2[c] {
				t.Fatalf("handler runs on CPU %d diverged across interleavings: %d vs %d (plan=%+v)", c, r1[c], r2[c], plan)
			}
		}
		if a1 != a2 {
			t.Fatalf("applied-fault totals diverged across interleavings: %v vs %v (plan=%+v)", a1, a2, plan)
		}
	})
}
