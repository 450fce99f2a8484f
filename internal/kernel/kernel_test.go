package kernel

import (
	"testing"
	"testing/quick"

	"tscout/internal/sim"
)

func newTestKernel() *Kernel { return New(sim.LargeHW, 1, 0) }

func TestNewTaskPIDs(t *testing.T) {
	k := newTestKernel()
	a := k.NewTask("a")
	b := k.NewTask("b")
	if a.PID == b.PID {
		t.Fatalf("tasks must get distinct PIDs")
	}
	if a.Kernel() != k {
		t.Fatalf("task must point back to its kernel")
	}
}

func TestChargeAdvancesClock(t *testing.T) {
	k := newTestKernel()
	task := k.NewTask("w")
	elapsed := task.Charge(sim.Work{Instructions: 10000, BytesTouched: 4096, WorkingSetBytes: 4096})
	if elapsed <= 0 {
		t.Fatalf("CPU work must take time")
	}
	if task.Now() != elapsed {
		t.Fatalf("clock must advance by elapsed: now=%d elapsed=%d", task.Now(), elapsed)
	}
}

func TestChargeIOAccounting(t *testing.T) {
	k := newTestKernel()
	task := k.NewTask("w")
	task.Charge(sim.Work{DiskWriteBytes: 8192, DiskOps: 2})
	if task.IOAC.WriteBytes != 8192 {
		t.Fatalf("ioac write bytes: got %d want 8192", task.IOAC.WriteBytes)
	}
	if task.IOAC.WriteOps != 2 {
		t.Fatalf("ioac write ops: got %d want 2", task.IOAC.WriteOps)
	}
	if task.IOAC.ReadBytes != 0 {
		t.Fatalf("no reads issued")
	}
	task.Charge(sim.Work{DiskReadBytes: 100})
	if task.IOAC.ReadBytes != 100 || task.IOAC.ReadOps != 1 {
		t.Fatalf("read accounting: %+v", task.IOAC)
	}
}

func TestChargeSocketStats(t *testing.T) {
	k := newTestKernel()
	task := k.NewTask("w")
	task.Charge(sim.Work{NetRecvBytes: 300, NetSendBytes: 150, NetMessages: 3})
	if task.Sock.BytesReceived != 300 || task.Sock.BytesSent != 150 {
		t.Fatalf("socket stats: %+v", task.Sock)
	}
	if task.Sock.SegsIn != 3 {
		t.Fatalf("segments: %+v", task.Sock)
	}
}

func TestMissRateShape(t *testing.T) {
	p := &sim.LargeHW
	small := missRate(sim.Work{BytesTouched: 1000, WorkingSetBytes: 1 << 20, RandomAccessFraction: 1}, p)
	big := missRate(sim.Work{BytesTouched: 1000, WorkingSetBytes: 1 << 30, RandomAccessFraction: 1}, p)
	if big <= small {
		t.Fatalf("bigger working set must miss more: %v vs %v", big, small)
	}
	seq := missRate(sim.Work{BytesTouched: 1000, WorkingSetBytes: 1 << 30, RandomAccessFraction: 0}, p)
	if seq >= big {
		t.Fatalf("sequential access must miss less than random: %v vs %v", seq, big)
	}
	// The same out-of-cache working set must miss more on SmallHW.
	w := sim.Work{BytesTouched: 1000, WorkingSetBytes: 20 << 20, RandomAccessFraction: 0.5}
	if missRate(w, &sim.SmallHW) <= missRate(w, &sim.LargeHW) {
		t.Fatalf("smaller L3 must raise the miss rate (paper §6.4)")
	}
}

func TestMissRateBounded(t *testing.T) {
	f := func(ws uint32, frac uint8) bool {
		w := sim.Work{
			BytesTouched:         1000,
			WorkingSetBytes:      float64(ws),
			RandomAccessFraction: float64(frac%101) / 100,
		}
		r := missRate(w, &sim.LargeHW)
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSyscallCost(t *testing.T) {
	k := newTestKernel()
	task := k.NewTask("w")
	ns := task.Syscall(0, true)
	want := sim.LargeHW.ModeSwitchNS + sim.LargeHW.SyscallNS
	if ns != want {
		t.Fatalf("syscall cost: got %d want %d", ns, want)
	}
	if task.KernelInstrumentationNS != ns {
		t.Fatalf("instrumentation accounting: got %d want %d", task.KernelInstrumentationNS, ns)
	}
	if k.ModeSwitches != 1 {
		t.Fatalf("mode switch counter: %d", k.ModeSwitches)
	}
}

func TestContextSwitchPMUSurcharge(t *testing.T) {
	k := newTestKernel()
	plain := k.NewTask("plain")
	cpuWide := k.NewTask("cpu-wide")
	cpuWide.Perf().Enable(CounterCycles)
	perTask := k.NewTask("per-task")
	perTask.Perf().SetPerTask(true)
	perTask.Perf().Enable(CounterCycles)
	if !perTask.Perf().perTask {
		t.Fatalf("per-task flag")
	}
	a := plain.ContextSwitch()
	b := cpuWide.ContextSwitch()
	c := perTask.ContextSwitch()
	if b != a {
		t.Fatalf("CPU-wide counters must not add switch cost: %d vs %d", b, a)
	}
	if c <= a {
		t.Fatalf("per-task counters must add PMU save cost: %d vs %d", c, a)
	}
	if c-a != sim.LargeHW.PMUSaveNS {
		t.Fatalf("surcharge: got %d want %d", c-a, sim.LargeHW.PMUSaveNS)
	}
}

func TestTracepointNOPWhenDetached(t *testing.T) {
	k := newTestKernel()
	task := k.NewTask("w")
	tp := k.Tracepoint("ou/begin")
	task.HitTracepoint(tp, nil)
	if task.Now() != 0 {
		t.Fatalf("detached tracepoint must be free, cost %d", task.Now())
	}
	if tp.Hits != 0 {
		t.Fatalf("detached tracepoint must not count hits")
	}
}

func TestTracepointAttachedCharges(t *testing.T) {
	k := newTestKernel()
	task := k.NewTask("w")
	tp := k.Tracepoint("ou/begin")
	var gotArgs []uint64
	tp.Attach(func(tk *Task, args []uint64) int64 {
		gotArgs = append([]uint64(nil), args...)
		return 500
	})
	task.HitTracepoint(tp, []uint64{7, 9})
	want := sim.LargeHW.ModeSwitchNS + 500
	if task.Now() != want {
		t.Fatalf("attached tracepoint cost: got %d want %d", task.Now(), want)
	}
	if len(gotArgs) != 2 || gotArgs[0] != 7 || gotArgs[1] != 9 {
		t.Fatalf("handler args: %v", gotArgs)
	}
	if tp.Hits != 1 {
		t.Fatalf("hit count: %d", tp.Hits)
	}
	if k.ModeSwitches != tp.Hits {
		t.Fatalf("mode switches %d != delivered hits %d", k.ModeSwitches, tp.Hits)
	}
	if !tp.Attached() {
		t.Fatalf("Attached must report true")
	}
	tp.Attach(nil)
	if tp.Attached() {
		t.Fatalf("Attach(nil) must clear handler")
	}
	task.HitTracepoint(tp, nil)
	if tp.Hits != 1 {
		t.Fatalf("detached hits must not count")
	}
}

// Attach(nil) must detach: the tracepoint reads as detached and the next
// hit is a NOP, not a call to nil.
func TestTracepointAttachNilDetaches(t *testing.T) {
	k := newTestKernel()
	task := k.NewTask("w")
	tp := k.Tracepoint("ou/begin")
	tp.Attach(func(*Task, []uint64) int64 { return 500 })
	tp.Attach(nil)
	if tp.Attached() {
		t.Fatalf("Attach(nil) must leave the tracepoint detached: %v", tp)
	}
	if got, want := tp.String(), "tracepoint(ou/begin attached=false hits=0)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	task.HitTracepoint(tp, nil)
	if task.Now() != 0 || tp.Hits != 0 {
		t.Fatalf("hit after Attach(nil) must be a NOP: cost %d, hits %d", task.Now(), tp.Hits)
	}
}

func TestTracepointRegistryReuse(t *testing.T) {
	k := newTestKernel()
	a := k.Tracepoint("x")
	b := k.Tracepoint("x")
	if a != b {
		t.Fatalf("same name must return same tracepoint")
	}
	if len(k.TracepointNames()) != 1 {
		t.Fatalf("names: %v", k.TracepointNames())
	}
}

func TestPerfAccumulateOnlyWhenEnabled(t *testing.T) {
	k := newTestKernel()
	task := k.NewTask("w")
	task.Charge(sim.Work{Instructions: 1000, BytesTouched: 640})
	if r := task.Perf().Read(CounterInstructions); r.Raw != 0 {
		t.Fatalf("disabled counter must stay zero, got %v", r.Raw)
	}
	task.Perf().Enable(CounterInstructions)
	task.Charge(sim.Work{Instructions: 1000, BytesTouched: 640})
	if r := task.Perf().Read(CounterInstructions); r.Raw != 1000 {
		t.Fatalf("enabled counter (no noise, no multiplexing): got %v want 1000", r.Raw)
	}
}

func TestPerfMultiplexNormalization(t *testing.T) {
	k := newTestKernel() // 4 PMU registers
	task := k.NewTask("w")
	task.Perf().Enable(AllCounters...) // 5 counters > 4 registers
	task.Charge(sim.Work{Instructions: 100000, BytesTouched: 6400})
	r := task.Perf().Read(CounterInstructions)
	if r.Raw >= 100000 {
		t.Fatalf("multiplexed raw count must be scaled down: %v", r.Raw)
	}
	norm := r.Normalized()
	if norm < 95000 || norm > 105000 {
		t.Fatalf("normalization must recover the true count: got %v want ~100000", norm)
	}
}

// ReadAll returns readings for every counter in cs.
func (pc *PerfContext) ReadAll(cs []Counter) []Reading {
	out := make([]Reading, len(cs))
	for i, c := range cs {
		out[i] = pc.Read(c)
	}
	return out
}

// Reset clears accumulated counts.
func (pc *PerfContext) Reset() {
	pc.raw = [numCounters]float64{}
	pc.timeEnabled = [numCounters]float64{}
	pc.timeRunning = [numCounters]float64{}
}

func TestPerfReadAllAndReset(t *testing.T) {
	k := newTestKernel()
	task := k.NewTask("w")
	task.Perf().Enable(CounterCycles, CounterInstructions)
	task.Charge(sim.Work{Instructions: 500, BytesTouched: 64})
	rs := task.Perf().ReadAll([]Counter{CounterCycles, CounterInstructions})
	if len(rs) != 2 || rs[1].Raw != 500 {
		t.Fatalf("ReadAll: %+v", rs)
	}
	task.Perf().Reset()
	if task.Perf().Read(CounterCycles).Raw != 0 {
		t.Fatalf("Reset must clear counters")
	}
	task.Perf().DisableAll()
	if task.Perf().EnabledCount() != 0 {
		t.Fatalf("DisableAll must clear enablement")
	}
}

func TestCounterNames(t *testing.T) {
	names := map[string]bool{}
	for _, c := range AllCounters {
		names[c.String()] = true
	}
	if len(names) != len(AllCounters) {
		t.Fatalf("counter names must be distinct: %v", names)
	}
	if Counter(99).String() != "unknown-counter" {
		t.Fatalf("unknown counter name")
	}
}

func TestNormalizedZeroRunning(t *testing.T) {
	r := Reading{Raw: 100, TimeEnabled: 1, TimeRunning: 0}
	if r.Normalized() != 0 {
		t.Fatalf("zero running time must normalize to 0")
	}
}

func TestChargeUserNS(t *testing.T) {
	k := newTestKernel()
	task := k.NewTask("w")
	task.ChargeUserNS(250)
	task.ChargeUserNS(-10)
	if task.Now() != 250 || task.UserInstrumentationNS != 250 {
		t.Fatalf("user charge: now=%d instr=%d", task.Now(), task.UserInstrumentationNS)
	}
}

func TestTaskGroupAccounting(t *testing.T) {
	k := newTestKernel()
	g := k.NewTaskGroup("proc", 3)
	if g.Size() != 3 {
		t.Fatalf("size: %d", g.Size())
	}
	// Distinct PIDs and names per member thread.
	seen := map[int]bool{}
	for i := 0; i < g.Size(); i++ {
		if seen[g.Task(i).PID] {
			t.Fatalf("duplicate PID %d", g.Task(i).PID)
		}
		seen[g.Task(i).PID] = true
	}
	// Uneven work: makespan is the max.
	g.Task(0).ChargeUserNS(100)
	g.Task(1).ChargeUserNS(700)
	g.Task(2).ChargeUserNS(250)
	if g.Now() != 700 {
		t.Fatalf("makespan: %d", g.Now())
	}
	// Barrier: all threads wake together at the makespan.
	if ns := g.Barrier(); ns != 700 {
		t.Fatalf("barrier: %d", ns)
	}
	for i := 0; i < g.Size(); i++ {
		if g.Task(i).Now() != 700 {
			t.Fatalf("thread %d not synced: %d", i, g.Task(i).Now())
		}
	}
}

func TestTaskGroupMinimumSize(t *testing.T) {
	k := newTestKernel()
	if g := k.NewTaskGroup("proc", 0); g.Size() != 1 {
		t.Fatalf("group must have at least one thread: %d", g.Size())
	}
}
