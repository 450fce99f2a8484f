package bpf

import (
	"errors"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

func testTask() *kernel.Task {
	k := kernel.New(sim.LargeHW, 1, 0)
	return k.NewTask("vm-test")
}

func runProg(t *testing.T, p *Program, args ...uint64) (uint64, int64) {
	t.Helper()
	lp, err := Load(p, 0)
	if err != nil {
		t.Fatalf("load:\n%s\n%v", p.Disassemble(), err)
	}
	ret, cost, rerr := lp.Run(testTask(), args)
	if rerr != nil {
		t.Fatalf("run: %v", rerr)
	}
	return ret, cost
}

func TestRunArithmetic(t *testing.T) {
	p := NewBuilder("arith").
		Mov(R0, 10).
		Add(R0, 5).
		Mul(R0, 4).
		Sub(R0, 20).
		Div(R0, 8). // (10+5)*4-20 = 40; /8 = 5
		Exit().MustBuild()
	ret, cost := runProg(t, p)
	if ret != 5 {
		t.Fatalf("arith: got %d want 5", ret)
	}
	if cost <= 0 {
		t.Fatalf("execution must cost virtual time")
	}
}

func TestRunBitOps(t *testing.T) {
	p := NewBuilder("bits").
		Mov(R0, 0xF0).
		And(R0, 0x3C).
		Or(R0, 0x01).
		Xor(R0, 0x10).
		Lsh(R0, 2).
		Rsh(R0, 1).
		Exit().MustBuild()
	ret, _ := runProg(t, p)
	want := uint64((((0xF0&0x3C)|0x01)^0x10)<<2) >> 1
	if ret != want {
		t.Fatalf("bits: got %#x want %#x", ret, want)
	}
}

func TestRunNegAndMod(t *testing.T) {
	p := NewBuilder("negmod").
		Mov(R6, 17).
		Mod(R6, 5).
		MovReg(R0, R6).
		Exit().MustBuild()
	ret, _ := runProg(t, p)
	if ret != 2 {
		t.Fatalf("mod: got %d want 2", ret)
	}
}

func TestRunBoundedLoop(t *testing.T) {
	// Sum 1..100 with a verifier-approved bounded loop.
	p := NewBuilder("sum").
		Mov(R6, 0). // i
		Mov(R7, 0). // sum
		Label("top").
		Add(R6, 1).
		AddReg(R7, R6).
		JneLoop(R6, 100, "top", 100).
		MovReg(R0, R7).
		Exit().MustBuild()
	ret, cost := runProg(t, p)
	if ret != 5050 {
		t.Fatalf("loop sum: got %d want 5050", ret)
	}
	// 100 iterations x 3 insns each should dominate the cost.
	if cost < int64(250*sim.LargeHW.BPFInsnNS) {
		t.Fatalf("loop cost too low: %d", cost)
	}
}

func TestRunStackMemory(t *testing.T) {
	p := NewBuilder("stack").
		StoreImm(R10, -8, 41).
		Load(R0, R10, -8).
		Add(R0, 1).
		Exit().MustBuild()
	ret, _ := runProg(t, p)
	if ret != 42 {
		t.Fatalf("stack rw: got %d", ret)
	}
}

func TestRunMapRoundTrip(t *testing.T) {
	m := NewHashMap("m", 8, 8)
	b := NewBuilder("map")
	idx := b.AddMap(m)
	p := b.
		StoreImm(R10, -16, 7).  // key = 7
		StoreImm(R10, -8, 123). // value = 123
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 16).
		MovReg(R3, R10).Sub(R3, 8).
		Call(HelperMapUpdate).
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 16).
		Call(HelperMapLookup).
		Jeq(R0, 0, "miss").
		Load(R0, R0, 0).
		Exit().
		Label("miss").
		Mov(R0, 0).
		Exit().MustBuild()
	ret, _ := runProg(t, p)
	if ret != 123 {
		t.Fatalf("map round trip: got %d want 123", ret)
	}
	if got := m.Lookup(U64Key(7)); got == nil || U64(got) != 123 {
		t.Fatalf("map state after program: %v", got)
	}
}

func TestRunMapValueInPlaceMutation(t *testing.T) {
	// The Collector's accumulate pattern: lookup, add, store through the
	// value pointer.
	m := NewHashMap("m", 8, 8)
	seed := make([]byte, 8)
	PutU64(seed, 100)
	if err := m.Update(U64Key(1), seed); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder("accum")
	idx := b.AddMap(m)
	p := b.
		StoreImm(R10, -8, 1).
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 8).
		Call(HelperMapLookup).
		Jeq(R0, 0, "miss").
		Load(R6, R0, 0).
		Add(R6, 11).
		Store(R0, 0, R6).
		Mov(R0, 0).
		Exit().
		Label("miss").
		Mov(R0, 1).
		Exit().MustBuild()
	ret, _ := runProg(t, p)
	if ret != 0 {
		t.Fatalf("lookup must hit")
	}
	if got := U64(m.Lookup(U64Key(1))); got != 111 {
		t.Fatalf("in-place mutation: got %d want 111", got)
	}
}

func TestRunMapLookupMiss(t *testing.T) {
	m := NewHashMap("m", 8, 8)
	b := NewBuilder("miss")
	idx := b.AddMap(m)
	p := b.
		StoreImm(R10, -8, 99).
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 8).
		Call(HelperMapLookup).
		Jne(R0, 0, "hit").
		Mov(R0, 55). // miss path
		Exit().
		Label("hit").
		Mov(R0, 1).
		Exit().MustBuild()
	ret, _ := runProg(t, p)
	if ret != 55 {
		t.Fatalf("miss path: got %d", ret)
	}
}

func TestRunStackMapPushPop(t *testing.T) {
	s := NewStackMap("s", 8, 4)
	b := NewBuilder("stackmap")
	idx := b.AddMap(s)
	p := b.
		StoreImm(R10, -8, 31).
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 8).
		Call(HelperStackPush).
		StoreImm(R10, -8, 0). // clear buffer
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 8).
		Call(HelperStackPop).
		Jne(R0, 0, "empty").
		Load(R0, R10, -8).
		Exit().
		Label("empty").
		Mov(R0, 0).
		Exit().MustBuild()
	ret, _ := runProg(t, p)
	if ret != 31 {
		t.Fatalf("stack map round trip: got %d want 31", ret)
	}
	if s.Len() != 0 {
		t.Fatalf("stack must be empty after pop")
	}
}

func TestRunPerfOutput(t *testing.T) {
	rb := NewPerCPURing("rb", 1, 4)
	b := NewBuilder("perf")
	idx := b.AddMap(rb)
	p := b.
		StoreImm(R10, -16, 0xAA).
		StoreImm(R10, -8, 0xBB).
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 16).
		Mov(R3, 16).
		Call(HelperPerfOutput).
		Mov(R0, 0).
		Exit().MustBuild()
	runProg(t, p)
	var got Batch
	if n := rb.DrainBatch(0, &got, 0); n != 1 || len(got.Sample(0)) != 16 {
		t.Fatalf("perf submit: %d samples", n)
	}
	if s := got.Sample(0); U64(s[:8]) != 0xAA || U64(s[8:]) != 0xBB {
		t.Fatalf("perf payload: %x", s)
	}
}

func TestRunKernelStateHelpers(t *testing.T) {
	k := kernel.New(sim.LargeHW, 1, 0)
	task := k.NewTask("w")
	task.Charge(sim.Work{DiskWriteBytes: 4096, DiskOps: 1, NetRecvBytes: 256, NetMessages: 2})

	build := func(helper int64, field int64) *Program {
		return NewBuilder("read").
			Mov(R1, field).
			Call(helper).
			Exit().MustBuild()
	}
	check := func(helper int64, field int64, want uint64) {
		lp, err := Load(build(helper, field), 0)
		if err != nil {
			t.Fatal(err)
		}
		ret, _, rerr := lp.Run(task, nil)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if ret != want {
			t.Fatalf("helper %d field %d: got %d want %d", helper, field, ret, want)
		}
	}
	check(HelperReadIOAC, IOACWriteBytes, 4096)
	check(HelperReadIOAC, IOACWriteOps, 1)
	check(HelperReadIOAC, IOACReadBytes, 0)
	check(HelperReadSock, SockBytesReceived, 256)
	check(HelperReadSock, SockSegsIn, 2)

	// PID helper.
	pidProg := NewBuilder("pid").Call(HelperGetPID).Exit().MustBuild()
	lp, _ := Load(pidProg, 0)
	ret, _, _ := lp.Run(task, nil)
	if int(ret) != task.PID {
		t.Fatalf("pid: got %d want %d", ret, task.PID)
	}
}

func TestRunPerfCounterHelper(t *testing.T) {
	k := kernel.New(sim.LargeHW, 2, 0)
	task := k.NewTask("w")
	task.Perf().Enable(kernel.CounterInstructions)
	task.Charge(sim.Work{Instructions: 5000, BytesTouched: 640})

	p := NewBuilder("ctr").
		Mov(R1, int64(kernel.CounterInstructions)).
		Mov(R2, CounterPartRaw).
		Call(HelperReadCounter).
		Exit().MustBuild()
	lp, err := Load(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	ret, _, _ := lp.Run(task, nil)
	if ret != 5000 {
		t.Fatalf("counter read: got %d want 5000", ret)
	}
}

func TestRunTracepointArgs(t *testing.T) {
	p := NewBuilder("args").
		Mov(R1, 1).
		Call(HelperGetArg).
		Exit().MustBuild()
	ret, _ := runProg(t, p, 10, 20, 30)
	if ret != 20 {
		t.Fatalf("arg read: got %d want 20", ret)
	}
	// Out-of-range index yields 0.
	ret2, _ := runProg(t, p, uint64(5))
	if ret2 != 0 {
		t.Fatalf("OOB arg: got %d want 0", ret2)
	}
}

func TestRunPrintk(t *testing.T) {
	p := NewBuilder("printk").
		Mov(R1, 777).
		Call(HelperTracePrintk).
		Exit().MustBuild()
	lp, err := Load(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lp.Run(testTask(), nil); err != nil {
		t.Fatal(err)
	}
	if log := lp.Printk(); len(log) != 1 || log[0] != 777 {
		t.Fatalf("printk log: %v", log)
	}
}

func TestRunKtimeMatchesTask(t *testing.T) {
	k := kernel.New(sim.LargeHW, 1, 0)
	task := k.NewTask("w")
	task.Clock.Advance(12345)
	p := NewBuilder("ktime").Call(HelperKtime).Exit().MustBuild()
	lp, _ := Load(p, 0)
	ret, _, _ := lp.Run(task, nil)
	if ret != 12345 {
		t.Fatalf("ktime: got %d", ret)
	}
}

func TestRunDivByZeroRegYieldsZero(t *testing.T) {
	// BPF semantics: runtime division by an unknown zero yields 0.
	p := NewBuilder("divz").
		Mov(R1, 0).
		Call(HelperGetArg). // r0 = args[0]
		Mov(R6, 100).
		DivReg(R6, R0).
		MovReg(R0, R6).
		Exit().MustBuild()
	ret, _ := runProg(t, p, 0)
	if ret != 0 {
		t.Fatalf("div by zero: got %d want 0", ret)
	}
}

func TestAttachToTracepoint(t *testing.T) {
	k := kernel.New(sim.LargeHW, 1, 0)
	task := k.NewTask("w")
	tp := k.Tracepoint("ou/seqscan/begin")

	rb := NewPerCPURing("rb", 1, 8)
	b := NewBuilder("collector")
	idx := b.AddMap(rb)
	p := b.
		Mov(R1, 0).
		Call(HelperGetArg). // arg 0 = feature value
		Store(R10, -8, R0).
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 8).
		Mov(R3, 8).
		Call(HelperPerfOutput).
		Mov(R0, 0).
		Exit().MustBuild()
	lp, err := Load(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	lp.Attach(tp)

	before := task.Now()
	task.HitTracepoint(tp, []uint64{4242})
	if task.Now() <= before {
		t.Fatalf("attached program must cost time")
	}
	var got Batch
	if n := rb.DrainBatch(0, &got, 0); n != 1 || U64(got.Sample(0)) != 4242 {
		t.Fatalf("sample: drained %d", n)
	}
	if lp.Runs() != 1 {
		t.Fatalf("run count: %d", lp.Runs())
	}
}

func TestRuntimeInsnBudget(t *testing.T) {
	// A verified loop whose declared bound lies: runtime budget stops it.
	p := &Program{Name: "liar", Insns: []Insn{
		{Op: OpMovImm, Dst: R0, Imm: 0},
		// Always-taken backward branch with a lying declared bound; the
		// exit stays statically reachable via the never-taken fallthrough.
		{Op: OpJeqImm, Dst: R0, Imm: 0, Off: -2, LoopBound: 1},
		{Op: OpExit},
	}}
	lp, err := Load(p, 0)
	if err != nil {
		t.Fatalf("structurally valid: %v", err)
	}
	_, _, rerr := lp.Run(testTask(), nil)
	if !errors.Is(rerr, ErrInsnBudget) {
		t.Fatalf("runtime budget must trip: %v", rerr)
	}
}

func TestLoadRejectsUnverifiable(t *testing.T) {
	p := &Program{Name: "bad", Insns: []Insn{{Op: OpExit}}}
	if _, err := Load(p, 0); !errors.Is(err, ErrVerification) {
		t.Fatalf("Load must verify: %v", err)
	}
}

func TestCostScalesWithInstructionCount(t *testing.T) {
	short := NewBuilder("short").Mov(R0, 0).Exit().MustBuild()
	b := NewBuilder("long")
	for i := 0; i < 200; i++ {
		b.Mov(R6, int64(i))
	}
	long := b.Mov(R0, 0).Exit().MustBuild()
	_, c1 := runProg(t, short)
	_, c2 := runProg(t, long)
	if c2 <= c1 {
		t.Fatalf("longer programs must cost more: %d vs %d", c2, c1)
	}
}
