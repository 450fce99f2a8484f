package kernel

import (
	"reflect"
	"testing"

	"tscout/internal/sim"
)

func testKernel() *Kernel {
	return New(sim.LargeHW, 1, 0)
}

func TestGenFaultPlanDeterministic(t *testing.T) {
	a := GenFaultPlan(42, 16, 1000, 4)
	b := GenFaultPlan(42, 16, 1000, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n%v\n%v", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("plan length = %d, want 16", len(a))
	}
	for i, f := range a {
		if i > 0 && f.AtHit < a[i-1].AtHit {
			t.Fatalf("plan not sorted by AtHit: %v", a)
		}
		if f.OnCPU < 0 || f.OnCPU >= 4 {
			t.Fatalf("fault has OnCPU=%d outside 0..3: %+v", f.OnCPU, f)
		}
	}
	if GenFaultPlan(42, 0, 1000, 4) != nil {
		t.Fatalf("n=0 should yield a nil plan")
	}
	if reflect.DeepEqual(a, GenFaultPlan(43, 16, 1000, 4)) {
		t.Fatalf("different seeds produced identical plans")
	}
	// OnCPU takes no draw from the seeded stream: the one-CPU plan of the
	// same seed has the same kinds, hit indexes and burst sizes, in order.
	for i, f := range GenFaultPlan(42, 16, 1000, 1) {
		if f.OnCPU != 0 || f.Kind != a[i].Kind || f.AtHit != a[i].AtHit || f.Count != a[i].Count {
			t.Fatalf("fault %d at one CPU is %+v, at four %+v", i, f, a[i])
		}
	}
}

func TestPIDReuseKeepsGenerationsDistinct(t *testing.T) {
	k := testKernel()
	t1 := k.NewTask("w1")
	g1 := t1.Gen()
	if g1 == 0 {
		t.Fatalf("generation 0 assigned to a live task")
	}
	if !k.GenAlive(g1) {
		t.Fatalf("fresh task's generation not alive")
	}
	k.ExitTask(t1)
	if k.GenAlive(g1) {
		t.Fatalf("exited task's generation still alive")
	}
	t2 := k.NewTask("w2")
	if t2.PID != t1.PID {
		t.Fatalf("pid not recycled: old %d new %d", t1.PID, t2.PID)
	}
	if t2.Gen() == g1 {
		t.Fatalf("generation reused across pid recycle")
	}
	if !k.GenAlive(t2.Gen()) {
		t.Fatalf("respawned task's generation not alive")
	}
	// Double exit is a no-op and must not free the pid twice.
	k.ExitTask(t1)
	t3 := k.NewTask("w3")
	t4 := k.NewTask("w4")
	if t3.PID == t4.PID {
		t.Fatalf("double ExitTask freed pid twice: %d == %d", t3.PID, t4.PID)
	}
}

func TestInjectorDropAndDupDeliveries(t *testing.T) {
	k := testKernel()
	tk := k.NewTask("w")
	tp := k.Tracepoint("tp")
	var runs int
	tp.Attach(func(t *Task, args []uint64) int64 { runs++; return 0 })
	fi := NewFaultInjector(k, FaultPlan{
		{Kind: FaultDropMarker, AtHit: 1},
		{Kind: FaultDupMarker, AtHit: 2},
	})
	for i := 0; i < 4; i++ {
		tk.HitTracepoint(tp, nil)
	}
	// 4 deliveries: normal, dropped, duplicated, normal = 1+0+2+1 runs.
	if runs != 4 {
		t.Fatalf("handler ran %d times, want 4", runs)
	}
	if got := tp.Hits; got != 4 {
		t.Fatalf("tracepoint hits = %d, want 4", got)
	}
	if fi.CPUHits(0) != 4 {
		t.Fatalf("injector observed %d deliveries, want 4", fi.CPUHits(0))
	}
	if fi.Applied(FaultDropMarker) != 1 || fi.Applied(FaultDupMarker) != 1 {
		t.Fatalf("applied counts wrong: drop=%d dup=%d",
			fi.Applied(FaultDropMarker), fi.Applied(FaultDupMarker))
	}
}

func TestInjectorPendingKillAndBurst(t *testing.T) {
	k := testKernel()
	tk := k.NewTask("w")
	tp := k.Tracepoint("tp")
	tp.Attach(func(t *Task, args []uint64) int64 { return 0 })
	fi := NewFaultInjector(k, FaultPlan{
		{Kind: FaultKillTask, AtHit: 0},
		{Kind: FaultRingBurst, AtHit: 1, Count: 3},
		{Kind: FaultRingBurst, AtHit: 1, Count: 2},
	})
	tk.HitTracepoint(tp, nil)
	if !fi.TakePendingKill() {
		t.Fatalf("kill fault not queued")
	}
	if fi.TakePendingKill() {
		t.Fatalf("pending kill not cleared after take")
	}
	tk.HitTracepoint(tp, nil)
	if n := fi.TakePendingBurst(); n != 5 {
		t.Fatalf("pending burst = %d, want 5 (3+2 coalesced)", n)
	}
	if n := fi.TakePendingBurst(); n != 0 {
		t.Fatalf("pending burst not cleared: %d", n)
	}
}

func TestInjectorMigrateAndCounterWrap(t *testing.T) {
	k := testKernel()
	k.SetNumCPUs(4)
	tk := k.NewTaskOn("w", 0)
	tk.Perf().Enable(AllCounters...)
	tk.Charge(sim.Work{Instructions: 1e6, BytesTouched: 1 << 16, WorkingSetBytes: 1 << 16})
	before := tk.Perf().Read(CounterCycles).Raw
	tp := k.Tracepoint("tp")
	tp.Attach(func(t *Task, args []uint64) int64 { return 0 })
	// The migrating hit counts against CPU 0, where it was delivered; the
	// next hit is CPU 2's first.
	fi := NewFaultInjector(k, FaultPlan{
		{Kind: FaultMigrate, AtHit: 0, CPU: 2},
		{Kind: FaultCounterWrap, AtHit: 0, OnCPU: 2},
	})
	tk.HitTracepoint(tp, nil)
	if tk.CPU() != 2 {
		t.Fatalf("migrate fault left task on cpu %d, want 2", tk.CPU())
	}
	tk.HitTracepoint(tp, nil)
	if fi.CPUHits(0) != 1 || fi.CPUHits(2) != 1 {
		t.Fatalf("hits per CPU = %d on 0, %d on 2; want 1 each", fi.CPUHits(0), fi.CPUHits(2))
	}
	after := tk.Perf().Read(CounterCycles).Raw
	// The wrap pulls the accumulated count down (to zero here, since the
	// wrap delta far exceeds what one Charge accumulated); the CPU-2 base
	// offset keeps the absolute reading large, so compare base-relative.
	base := cpuCounterBase(2, CounterCycles)
	if after-base >= before {
		t.Fatalf("counter wrap did not roll the counter back: before=%g after(rel)=%g",
			before, after-base)
	}
}

func TestCPUCounterBaseCancelsInSameCPUDeltas(t *testing.T) {
	k := testKernel()
	k.SetNumCPUs(4)
	// Two tasks running identical work on different CPUs must observe
	// identical same-CPU raw deltas: the per-CPU base offset is constant
	// within a CPU and exactly representable, so it cancels to the bit.
	mk := func() *Task {
		tk := k.NewTask("w")
		tk.Perf().Enable(AllCounters...)
		return tk
	}
	t0, t1 := mk(), mk()
	if t0.CPU() == t1.CPU() {
		t1.Migrate(t0.CPU() + 1)
	}
	w := sim.Work{Instructions: 5e5, BytesTouched: 1 << 14, WorkingSetBytes: 1 << 14}
	run := func(tk *Task) float64 {
		begin := tk.Perf().Read(CounterInstructions).Raw
		tk.Charge(w)
		return tk.Perf().Read(CounterInstructions).Raw - begin
	}
	d0, d1 := run(t0), run(t1)
	if d0 != d1 {
		t.Fatalf("same-CPU deltas differ across CPUs: %g vs %g", d0, d1)
	}
	// A cross-CPU difference is detectably absurd: the base offsets differ
	// by at least 2^40 counts per CPU step.
	b0 := t0.Perf().Read(CounterInstructions).Raw
	t0.Migrate(t0.CPU() + 1)
	cross := t0.Perf().Read(CounterInstructions).Raw - b0
	if cross < float64(uint64(1)<<40) {
		t.Fatalf("cross-CPU read differs by only %g, want >= 2^40", cross)
	}
}

// deliverInterleaved runs per-CPU marker deliveries under an arbitrary
// global interleaving: order[i] names which CPU delivers next. It returns
// the per-CPU handler run counts. Each CPU's deliveries happen in its own
// fixed sequence; only the cross-CPU merge order varies.
func deliverInterleaved(t *testing.T, plan FaultPlan, numCPUs int, order []int) ([]int64, *FaultInjector) {
	t.Helper()
	k := testKernel()
	k.SetNumCPUs(numCPUs)
	tasks := make([]*Task, numCPUs)
	for c := range tasks {
		tasks[c] = k.NewTaskOn("w", c)
	}
	tp := k.Tracepoint("tp")
	runs := make([]int64, numCPUs)
	tp.Attach(func(tk *Task, args []uint64) int64 {
		runs[tk.CPU()]++
		return 0
	})
	fi := NewFaultInjector(k, plan)
	for _, c := range order {
		tasks[c].HitTracepoint(tp, nil)
	}
	return runs, fi
}

func TestPerCPUFaultIndexingIsInterleavingIndependent(t *testing.T) {
	const numCPUs = 4
	const perCPU = 6
	// CPU 0 drops its 3rd delivery, CPU 1 duplicates its 1st, CPU 2 drops
	// its 5th, CPU 3 is untouched.
	plan := FaultPlan{
		{Kind: FaultDropMarker, AtHit: 2, OnCPU: 0},
		{Kind: FaultDupMarker, AtHit: 0, OnCPU: 1},
		{Kind: FaultDropMarker, AtHit: 4, OnCPU: 2},
	}
	// Three very different global merge orders of the same per-CPU
	// sequences: round-robin, CPU-major, and reversed round-robin.
	var rr, major, rev []int
	for i := 0; i < perCPU; i++ {
		for c := 0; c < numCPUs; c++ {
			rr = append(rr, c)
			rev = append(rev, numCPUs-1-c)
		}
	}
	for c := 0; c < numCPUs; c++ {
		for i := 0; i < perCPU; i++ {
			major = append(major, c)
		}
	}
	want := []int64{perCPU - 1, perCPU + 1, perCPU - 1, perCPU}
	for name, order := range map[string][]int{"round-robin": rr, "cpu-major": major, "reversed": rev} {
		runs, fi := deliverInterleaved(t, plan, numCPUs, order)
		if !reflect.DeepEqual(runs, want) {
			t.Fatalf("%s: per-CPU handler runs = %v, want %v", name, runs, want)
		}
		for c := 0; c < numCPUs; c++ {
			if got := fi.CPUHits(c); got != perCPU {
				t.Fatalf("%s: CPUHits(%d) = %d, want %d", name, c, got, perCPU)
			}
		}
	}
}

func TestInterleaverCPULanes(t *testing.T) {
	// Two workloads pinned to different lanes never context-switch each
	// other, no matter how the seeded schedule interleaves them.
	k := testKernel()
	iv := k.NewInterleaver(7)
	iv.AddOn("a", 0, 50, func(i int) {})
	iv.AddOn("b", 1, 50, func(i int) {})
	iv.Run()
	if got := k.CtxSwitches; got != 0 {
		t.Fatalf("cross-lane workloads charged %d context switches, want 0", got)
	}
	// The same two workloads on one lane do switch (the legacy accounting):
	// with 100 quanta from two runners a seed-7 schedule must alternate at
	// least once.
	k2 := testKernel()
	iv2 := k2.NewInterleaver(7)
	iv2.AddOn("a", 0, 50, func(i int) {})
	iv2.AddOn("b", 0, 50, func(i int) {})
	trace := iv2.Run()
	if got := k2.CtxSwitches; got == 0 {
		t.Fatalf("same-lane workloads charged no context switches; trace=%v", trace)
	}
}
