package bpf

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

// This file tests the post-verify JIT (compile.go): the compiled path must
// be observationally identical to the interpreter — same R0, same cost
// accounting, same helper trace, printk, and map end-states — and every
// decline reason must fall back to the interpreter cleanly. The named
// TestCompileRegression_* cases pin interpreter-vs-compiled divergences
// that the differential harness is prone to (scalar/pointer dispatch,
// unsigned ALU edge cases, helper object identity); each also has a raw
// corpus entry under testdata/fuzz/FuzzOptimize so the fuzzers keep
// revisiting the exact programs.

// assertCompiledAgreement runs p's instructions twice against fresh
// kernels, tasks, and map tables — once interpreted, once through the JIT
// (which may decline and fall back) — and fails on any observable
// divergence. Returns the compile outcome so callers can assert on it.
func assertCompiledAgreement(t *testing.T, p *Program, seed int64) CompileInfo {
	t.Helper()
	ir := runExecVariant(p.Name+"/interp", p.Insns, seed, false)
	cr := runExecVariant(p.Name+"/jit", p.Insns, seed, true)
	if (ir.err == nil) != (cr.err == nil) ||
		(ir.err != nil && ir.err.Error() != cr.err.Error()) {
		t.Fatalf("error diverged (compiled=%v reason=%q):\ninterp   %v\ncompiled %v\n%s",
			cr.info.Compiled, cr.info.Reason, ir.err, cr.err, p.Disassemble())
	}
	if ir.r0 != cr.r0 {
		t.Fatalf("R0 diverged: interp %#x, compiled %#x (reason=%q)\n%s",
			ir.r0, cr.r0, cr.info.Reason, p.Disassemble())
	}
	if ir.cost != cr.cost {
		t.Fatalf("cost diverged: interp %d, compiled %d\n%s", ir.cost, cr.cost, p.Disassemble())
	}
	if !reflect.DeepEqual(ir.trace, cr.trace) {
		t.Fatalf("helper traces diverged:\ninterp   %v\ncompiled %v\n%s",
			ir.trace, cr.trace, p.Disassemble())
	}
	if !reflect.DeepEqual(ir.printk, cr.printk) {
		t.Fatalf("printk diverged:\ninterp   %v\ncompiled %v\n%s",
			ir.printk, cr.printk, p.Disassemble())
	}
	for i := range ir.maps {
		if ir.maps[i] != cr.maps[i] {
			t.Fatalf("map %d end-state diverged:\ninterp   %s\ncompiled %s\n%s",
				i, ir.maps[i], cr.maps[i], p.Disassemble())
		}
	}
	return cr.info
}

func genMapsBuilder(name string) *Builder {
	b := NewBuilder(name)
	for _, m := range newGenMaps() {
		b.AddMap(m)
	}
	return b
}

func TestCompileDispatchCounters(t *testing.T) {
	p := genMapsBuilder("jit/counters").Mov(R0, 7).Exit().MustBuild()
	lp, err := Load(p, 0)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	info := lp.Compile()
	if !info.Compiled || info.Reason != "" {
		t.Fatalf("straight-line program declined: %+v", info)
	}
	if lp.compileInfo != info {
		t.Fatalf("CompileInfo not retained: %+v vs %+v", lp.compileInfo, info)
	}
	// The compiled form has consumed the verifier's proof: it is released,
	// and asking again reports the same outcome, not no-analysis.
	if lp.analysis != nil {
		t.Fatal("analysis still held after a successful Compile")
	}
	if again := lp.Compile(); again != info {
		t.Fatalf("second Compile: %+v, want %+v", again, info)
	}
	k := kernel.New(sim.LargeHW, 1, 0)
	task := k.NewTask("jit")
	r0, _, rerr := lp.Run(task, nil)
	if rerr != nil || r0 != 7 {
		t.Fatalf("compiled run: r0=%d err=%v", r0, rerr)
	}
	if r0, _, rerr = lp.RunInterpreted(task, nil); rerr != nil || r0 != 7 {
		t.Fatalf("interpreted run: r0=%d err=%v", r0, rerr)
	}
	st := lp.JITStats()
	if !st.Compiled || st.CompiledRuns != 1 || st.InterpRuns != 1 || st.RuntimeFaults != 0 {
		t.Fatalf("dispatch counters: %+v", st)
	}
	if lp.Runs() != 2 {
		t.Fatalf("total runs %d, want 2", lp.Runs())
	}
}

// TestRuntimeFaultsCountedOnAttach is the regression test for the Attach
// error-swallowing bug: a runtime fault during an attached hit must be
// counted, not silently dropped, while the partial cost is still charged.
func TestRuntimeFaultsCountedOnAttach(t *testing.T) {
	// Hand-constructed (unverifiable) program: dereferences scalar R1=0.
	p := &Program{Name: "jit/fault", Insns: []Insn{
		{Op: OpLoad, Dst: R0, Src: R1},
		{Op: OpExit},
	}}
	lp := &LoadedProgram{prog: p, ptrALU: make([]bool, len(p.Insns))}
	k := kernel.New(sim.LargeHW, 1, 0)
	tp := k.Tracepoint("jit/fault-tp")
	lp.Attach(tp)
	task := k.NewTask("t")
	task.HitTracepoint(tp, nil)
	task.HitTracepoint(tp, nil)
	if got := lp.RuntimeFaults(); got != 2 {
		t.Fatalf("RuntimeFaults = %d, want 2", got)
	}
	if tp.Hits != 2 {
		t.Fatalf("hits = %d, want 2", tp.Hits)
	}
	if task.KernelInstrumentationNS == 0 {
		t.Fatal("faulted hits charged no kernel time (mode switch at minimum)")
	}
}

func TestCompileFallbackMatchesInterpreter(t *testing.T) {
	t.Run(DeclineBackEdge, func(t *testing.T) {
		p := genMapsBuilder("jit/loop").
			Mov(R2, 9). // dead: the optimizer drops it
			Mov(R1, 4).
			Label("top").
			Sub(R1, 1).
			JneLoop(R1, 0, "top", 8).
			Mov(R0, 7).
			Exit().
			MustBuild()
		lp, err := Load(p, 0)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		info := lp.Compile()
		if info.Compiled || info.Reason != DeclineBackEdge {
			t.Fatalf("bounded loop not declined as back-edge: %+v", info)
		}
		if lp.analysis == nil {
			t.Fatal("a declined Compile dropped the analysis")
		}
		// Through the optimizer the proof sits in the in-state array of the
		// longer program round 0 analyzed; a decline must not keep the slack.
		olp, stats, err := LoadOptimized(p, 0)
		if err != nil || stats.Rounds == 0 {
			t.Fatalf("LoadOptimized: %+v, %v", stats, err)
		}
		if info := olp.Compile(); info.Reason != DeclineBackEdge {
			t.Fatalf("optimized loop not declined as back-edge: %+v", info)
		}
		if st := olp.analysis.states; len(st) != len(olp.prog.Insns) || cap(st) != len(st) {
			t.Fatalf("declined proof holds %d in-states (cap %d) for %d insns", len(st), cap(st), len(olp.prog.Insns))
		}
		assertCompiledAgreement(t, p, 3)
		k := kernel.New(sim.LargeHW, 1, 0)
		task := k.NewTask("jit")
		r0, _, rerr := lp.Run(task, nil)
		if rerr != nil || r0 != 7 {
			t.Fatalf("fallback run: r0=%d err=%v", r0, rerr)
		}
		st := lp.JITStats()
		if st.CompiledRuns != 0 || st.InterpRuns != 1 {
			t.Fatalf("declined program dispatched through JIT: %+v", st)
		}
	})

	t.Run(DeclineNoAnalysis, func(t *testing.T) {
		p := &Program{Name: "jit/no-analysis", Insns: []Insn{
			{Op: OpMovImm, Dst: R0, Imm: 9},
			{Op: OpExit},
		}}
		lp := &LoadedProgram{prog: p, ptrALU: make([]bool, len(p.Insns))}
		info := lp.Compile()
		if info.Compiled || info.Reason != DeclineNoAnalysis {
			t.Fatalf("analysis-less program not declined: %+v", info)
		}
		k := kernel.New(sim.LargeHW, 1, 0)
		r0, _, rerr := lp.Run(k.NewTask("t"), nil)
		if rerr != nil || r0 != 9 {
			t.Fatalf("fallback run: r0=%d err=%v", r0, rerr)
		}
	})

	t.Run(DeclineUnsupportedOpcode, func(t *testing.T) {
		wantDecline(t, DeclineUnsupportedOpcode, 0, Insn{Op: Op(250)})
		// No template outranks no successor: same answer at the last pc.
		wantDecline(t, DeclineUnsupportedOpcode, 1, Insn{Op: Op(250)})
	})

	t.Run(DeclineUnprovenAccess, func(t *testing.T) {
		// R5 is uninitialized at pc 0: no proof it points anywhere.
		wantDecline(t, DeclineUnprovenAccess, 0, Insn{Op: OpLoad, Dst: R0, Src: R5})
		wantDecline(t, DeclineUnprovenAccess, 0, Insn{Op: OpStore, Dst: R5, Src: R0})
		wantDecline(t, DeclineUnprovenAccess, 0, Insn{Op: OpStoreImm, Dst: R5, Imm: 1})
	})

	t.Run(DeclineMalformed, func(t *testing.T) {
		p := &Program{Name: "jit/wild-jump", Insns: []Insn{
			{Op: OpJa, Off: 5},
			{Op: OpExit},
		}}
		lp := &LoadedProgram{prog: p, ptrALU: make([]bool, len(p.Insns)), analysis: &Analysis{}}
		if info := lp.Compile(); info.Compiled || info.Reason != DeclineMalformed {
			t.Fatalf("out-of-range jump not declined: %+v", info)
		}
		// Straight-line code, an unproven access and a helper call with no
		// successor all run off the end.
		wantDecline(t, DeclineMalformed, 1, Insn{Op: OpMovImm, Dst: R0, Imm: 2})
		wantDecline(t, DeclineMalformed, 1, Insn{Op: OpLoad, Dst: R0, Src: R5})
		wantDecline(t, DeclineMalformed, 1, Insn{Op: OpCall, Imm: HelperGetPID})
	})
}

// wantDecline loads the trivial program `mov r0, 1; exit`, overwrites the
// instruction at pc (the retained analysis still marks both pcs reached),
// and requires Compile — the whole merged pass, not one step of it — to
// decline with reason and leave the program on the interpreter.
func wantDecline(t *testing.T, reason string, pc int, in Insn) {
	t.Helper()
	p := &Program{Name: "jit/probe", Insns: []Insn{
		{Op: OpMovImm, Dst: R0, Imm: 1},
		{Op: OpExit},
	}}
	lp, err := Load(p, 0)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	p.Insns[pc] = in
	info := lp.Compile()
	if info.Compiled || info.Reason != reason || lp.compiled != nil {
		t.Fatalf("%v at pc %d: got %+v, want decline %q", in, pc, info, reason)
	}
}

// TestCompileGeneratedProgramsAgree sweeps the constructive generator as an
// inline differential oracle (the always-on complement of FuzzOptimize's
// compiled mode) and requires that a healthy fraction of generated
// programs actually compile rather than all falling back.
func TestCompileGeneratedProgramsAgree(t *testing.T) {
	compiled := 0
	for seed := int64(1); seed <= 150; seed++ {
		p := genProgram(seed, int(seed%40)+1)
		if err := Verify(p, fuzzMaxInsns); err != nil {
			t.Fatalf("seed %d: generated program rejected: %v", seed, err)
		}
		info := assertCompiledAgreement(t, p, seed)
		if info.Compiled {
			compiled++
		} else if info.Reason != DeclineBackEdge {
			t.Fatalf("seed %d: verified loop-free program declined (%q):\n%s",
				seed, info.Reason, p.Disassemble())
		}
	}
	t.Logf("compiled %d/150 generated programs", compiled)
	if compiled < 20 {
		t.Fatalf("only %d/150 generated programs compiled", compiled)
	}
}

func jitHighBitProgram() *Program {
	return genMapsBuilder("jit/high-bit").
		Mov(R1, 1).Lsh(R1, 63).Add(R1, 5).
		MovReg(R0, R1).
		Exit().
		MustBuild()
}

// Divergence found during development: the interpreter dispatches pointer
// arithmetic on the verifier's static kind, and an early JIT draft
// dispatched on the value's runtime tag bits instead — a scalar whose bit
// 63 is set would then take the pointer path and corrupt its low 32 bits.
func TestCompileRegression_ScalarHighBitALU(t *testing.T) {
	info := assertCompiledAgreement(t, jitHighBitProgram(), 1)
	if !info.Compiled {
		t.Fatalf("straight-line program declined: %+v", info)
	}
}

// Divergence found during development: div/mod are unsigned on the raw bit
// pattern and yield 0 on a zero divisor; a signed specialization (or one
// that panics on division by zero) diverges or crashes. The verifier
// statically rejects constant zero divisors, so the zero arrives through
// an out-of-range get_tracepoint_arg the verifier cannot bound.
func TestCompileRegression_DivModByZero(t *testing.T) {
	p := jitDivZeroProgram()
	if err := Verify(p, 0); err != nil {
		t.Fatalf("verify: %v", err)
	}
	info := assertCompiledAgreement(t, p, 1)
	if !info.Compiled {
		t.Fatalf("straight-line program declined: %+v", info)
	}
}

func jitDivZeroProgram() *Program {
	return &Program{Name: "jit/div-zero", Insns: []Insn{
		{Op: OpMovImm, Dst: R1, Imm: 99},
		{Op: OpCall, Imm: HelperGetArg}, // OOB index → R0 = 0 at runtime
		{Op: OpMovReg, Dst: R2, Src: R0},
		{Op: OpMovImm, Dst: R1, Imm: 10},
		{Op: OpDivReg, Dst: R1, Src: R2}, // 10/0 → 0
		{Op: OpMovImm, Dst: R3, Imm: -7},
		{Op: OpModReg, Dst: R3, Src: R2}, // -7%0 → 0
		{Op: OpMovImm, Dst: R4, Imm: -7},
		{Op: OpDivImm, Dst: R4, Imm: 2}, // unsigned: huge, not -3
		{Op: OpAddReg, Dst: R1, Src: R3},
		{Op: OpAddReg, Dst: R1, Src: R4},
		{Op: OpMovReg, Dst: R0, Src: R1},
		{Op: OpExit},
	}, Maps: newGenMaps()}
}

// Divergence found during development: shift amounts mask to the low 6
// bits (68 shifts by 4), arithmetic right shift propagates the sign bit,
// and Neg wraps MinInt64 to itself — all must match evalALU bit-for-bit.
// Immediate shifts ≥64 are statically rejected, so the oversized amounts
// are computed at runtime from a tracepoint argument (args[3] = 4).
func TestCompileRegression_ShiftMaskingArshNeg(t *testing.T) {
	p := jitShiftMaskProgram()
	if err := Verify(p, 0); err != nil {
		t.Fatalf("verify: %v", err)
	}
	info := assertCompiledAgreement(t, p, 1)
	if !info.Compiled {
		t.Fatalf("straight-line program declined: %+v", info)
	}
}

func jitShiftMaskProgram() *Program {
	return &Program{Name: "jit/shift-mask", Insns: []Insn{
		{Op: OpMovImm, Dst: R1, Imm: 3},
		{Op: OpCall, Imm: HelperGetArg}, // R0 = args[3] = 4
		{Op: OpMovReg, Dst: R6, Src: R0},
		{Op: OpMulImm, Dst: R6, Imm: 17}, // 68
		{Op: OpMovReg, Dst: R7, Src: R0},
		{Op: OpMulImm, Dst: R7, Imm: 16},
		{Op: OpAddImm, Dst: R7, Imm: 1}, // 65
		{Op: OpMovImm, Dst: R1, Imm: 255},
		{Op: OpLshReg, Dst: R1, Src: R6}, // 68&63 = 4 → 0xFF0
		{Op: OpMovImm, Dst: R2, Imm: -8},
		{Op: OpArshReg, Dst: R2, Src: R7}, // 65&63 = 1 → -4
		{Op: OpAddReg, Dst: R1, Src: R2},
		{Op: OpMovImm, Dst: R3, Imm: math.MinInt64},
		{Op: OpNeg, Dst: R3}, // wraps to MinInt64
		{Op: OpAddReg, Dst: R1, Src: R3},
		{Op: OpMovReg, Dst: R0, Src: R1},
		{Op: OpExit},
	}, Maps: newGenMaps()}
}

// Divergence found during development: conditional jumps compare unsigned,
// so jgt r1, -1 with r1=1 must fall through (1 > 0xFFFF…FFFF is false); a
// signed comparison takes the branch.
func jitUnsignedCompareProgram() *Program {
	return genMapsBuilder("jit/ucmp").
		Mov(R1, 1).
		Jgt(R1, -1, "big").
		Mov(R0, 5).
		Exit().
		Label("big").
		Mov(R0, 9).
		Exit().
		MustBuild()
}

func TestCompileRegression_UnsignedCompareNegImm(t *testing.T) {
	info := assertCompiledAgreement(t, jitUnsignedCompareProgram(), 1)
	if !info.Compiled {
		t.Fatalf("forward-branch program declined: %+v", info)
	}
}

// Divergence found during development: every map lookup registers a fresh
// object id even for the same backing value, and the recorded trace (and
// any pointer stored to a map) exposes those ids. The compiled path must
// register objects in the same order as the interpreter, and two handles
// to one map value must alias.
func TestCompileRegression_MapLookupObjectIdentity(t *testing.T) {
	info := assertCompiledAgreement(t, jitLookupIdentityProgram(), 1)
	if !info.Compiled {
		t.Fatalf("lookup program declined: %+v", info)
	}
}

func jitLookupIdentityProgram() *Program {
	return genMapsBuilder("jit/lookup-identity").
		StoreImm(R10, -8, 42). // key
		StoreImm(R10, -24, 7). // value word 0
		StoreImm(R10, -16, 9). // value word 1
		LoadMapPtr(R1, genMapHash).
		MovReg(R2, R10).Sub(R2, 8).
		MovReg(R3, R10).Sub(R3, 24).
		Call(HelperMapUpdate).
		LoadMapPtr(R1, genMapHash).
		MovReg(R2, R10).Sub(R2, 8).
		Call(HelperMapLookup). // first handle
		MovReg(R6, R0).
		Jeq(R6, 0, "miss").
		Load(R7, R6, 0). // read word 0 (7) through handle 1
		LoadMapPtr(R1, genMapHash).
		MovReg(R2, R10).Sub(R2, 8).
		Call(HelperMapLookup). // second handle, distinct object id
		MovReg(R8, R0).
		Jeq(R8, 0, "miss").
		Store(R8, 8, R7). // write word 1 through handle 2
		Load(R0, R6, 8).  // read it back through handle 1 (must alias)
		Exit().
		Label("miss").
		Mov(R0, 0).
		Exit().
		MustBuild()
}

var updateJITCorpus = flag.Bool("update-jit-corpus", false,
	"rewrite the pinned JIT regression corpus entries under testdata")

// jitRegressionCorpus maps each named interpreter-vs-JIT regression to its
// pinned FuzzOptimize corpus entry. The entries use raw mode (seed < 0:
// the byte payload is the wire-encoded program), so the exact
// divergence-triggering instruction sequences keep being revisited by the
// fuzzer even as the generator and mutator evolve.
func jitRegressionCorpus() map[string]*Program {
	return map[string]*Program{
		"seed-jit-high-bit":        jitHighBitProgram(),
		"seed-jit-div-zero":        jitDivZeroProgram(),
		"seed-jit-shift-mask":      jitShiftMaskProgram(),
		"seed-jit-ucmp":            jitUnsignedCompareProgram(),
		"seed-jit-lookup-identity": jitLookupIdentityProgram(),
	}
}

// TestCompileRegressionCorpusPinned keeps the checked-in corpus entries in
// lockstep with the regression programs above. Regenerate after editing a
// program with:
//
//	go test ./internal/bpf -run CorpusPinned -update-jit-corpus
func TestCompileRegressionCorpusPinned(t *testing.T) {
	for name, p := range jitRegressionCorpus() {
		path := filepath.Join("testdata", "fuzz", "FuzzOptimize", name)
		entry := fmt.Sprintf("go test fuzz v1\nint64(-1)\nbyte('\\x00')\n[]byte(%q)\n",
			encodeInsns(p.Insns))
		if *updateJITCorpus {
			if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
				t.Fatalf("write %s: %v", path, err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update-jit-corpus)", path, err)
		}
		if string(got) != entry {
			t.Fatalf("%s is stale relative to its regression program; regenerate with -update-jit-corpus", path)
		}
	}
}

// TestCostRoundsHalfUp pins the cost() rounding fix: fractional
// per-instruction nanoseconds round half-up instead of truncating.
func TestCostRoundsHalfUp(t *testing.T) {
	cases := []struct {
		insns    int
		helperNS int64
		insnNS   float64
		want     int64
	}{
		{3, 0, 0.25, 1},     // 0.75 rounds up (was 0)
		{2, 0, 0.25, 1},     // exactly .5 rounds half-up
		{1, 0, 0.24, 0},     // 0.74 still truncates
		{100, 10, 0.25, 35}, // whole values unchanged
	}
	for _, c := range cases {
		if got := cost(c.insns, c.helperNS, c.insnNS); got != c.want {
			t.Fatalf("cost(%d, %d, %v) = %d, want %d", c.insns, c.helperNS, c.insnNS, got, c.want)
		}
	}
}

// isolateInsns pads p with a `ja +0` in front of every instruction that
// compiles to a micro-op — everything but Ja and Exit, conditional jumps
// included — and retargets p's own jumps onto the pads. Every such pc is
// then a jump target whose successor is a Ja or Exit, so each one compiles
// to a block of exactly one micro-op.
func isolateInsns(p *Program) *Program {
	straight := func(in Insn) bool { return in.Op != OpJa && in.Op != OpExit }
	newPC := make([]int, len(p.Insns))
	n := 0
	for pc, in := range p.Insns {
		newPC[pc] = n
		if straight(in) {
			n++
		}
		n++
	}
	out := make([]Insn, 0, n)
	for pc, in := range p.Insns {
		if straight(in) {
			out = append(out, Insn{Op: OpJa})
		}
		if isJump(in.Op) {
			in.Off = int32(newPC[pc+1+int(in.Off)] - (len(out) + 1))
		}
		out = append(out, in)
	}
	return &Program{Name: p.Name, Insns: out, Maps: p.Maps}
}

// singleInsnBlocksProgram touches every micro-op family once; r9
// accumulates each result so a wrong one changes R0. args = {1, 2, 3, 4}.
func singleInsnBlocksProgram() *Program {
	b := genMapsBuilder("jit/single-insn-blocks")
	raw := func(op Op, dst, src Reg) { b.emit(Insn{Op: op, Dst: dst, Src: src}) }
	acc := func(r Reg) { b.AddReg(R9, r) }
	b.Mov(R9, 0)

	// Scalars the verifier cannot bound: r6 = 0 (out-of-range argument),
	// r7 = 100 and r8 = 8 (from args[3] = 4).
	b.Mov(R1, 99).Call(HelperGetArg).MovReg(R6, R0)
	b.Mov(R1, 3).Call(HelperGetArg).MovReg(R7, R0).Mul(R7, 25)
	b.MovReg(R8, R0).Lsh(R8, 1).And(R8, 8)

	// ALU, immediate forms.
	b.Mov(R1, -1000).Add(R1, 7).Sub(R1, 3).Mul(R1, 5).Div(R1, 3).Mod(R1, 100000).
		And(R1, 0xffff0).Or(R1, 3).Xor(R1, 0x55).Lsh(R1, 9).Rsh(R1, 2)
	acc(R1)
	b.Mov(R1, -64).Arsh(R1, 3)
	raw(OpNeg, R1, 0)
	acc(R1)

	// ALU, register forms: division and modulo by zero, shifts by 100
	// (masked to 36).
	b.Mov(R1, 77).MovReg(R2, R1).AddReg(R1, R7).SubReg(R1, R8).MulReg(R1, R7)
	raw(OpAndReg, R1, R2)
	raw(OpOrReg, R1, R7)
	raw(OpXorReg, R1, R8)
	raw(OpLshReg, R1, R7)
	raw(OpRshReg, R1, R7)
	acc(R1)
	b.Mov(R1, -8).ArshReg(R1, R7)
	acc(R1)
	b.Mov(R1, 10).DivReg(R1, R6)
	acc(R1)
	b.Mov(R1, -7)
	raw(OpModReg, R1, R6)
	acc(R1)
	b.Mov(R1, 100).DivReg(R1, R8)
	raw(OpModReg, R1, R7)
	acc(R1)

	// Exact stack stores and loads.
	b.StoreImm(R10, -8, 0x0102030405060708).Store(R10, -16, R7).Load(R1, R10, -8).Load(R2, R10, -16)
	acc(R1)
	acc(R2)

	// Pointer ALU (immediate and register, add and sub) and dynamic stack
	// access: interval arithmetic bounds r3 to [fp-40, fp-16], all of it
	// initialized; at run time it is fp-24.
	b.StoreImm(R10, -40, 4).StoreImm(R10, -32, 5).StoreImm(R10, -24, 6)
	b.MovReg(R3, R10).Sub(R3, 40).Add(R3, 8).AddReg(R3, R8).SubReg(R3, R8).AddReg(R3, R8)
	b.Load(R1, R3, 0)
	acc(R1)
	b.StoreImm(R3, 0, 9).Load(R1, R10, -24)
	acc(R1)
	b.Store(R3, 0, R7).Load(R1, R10, -24)
	acc(R1)

	// Pure helpers.
	for _, id := range []int64{HelperGetPID, HelperGetTaskGen, HelperGetCPU, HelperKtime} {
		b.Call(id)
		acc(R0)
	}
	b.Mov(R1, 1).Call(HelperGetArg)
	acc(R0)
	b.Mov(R1, 0).Mov(R2, CounterPartEnabled).Call(HelperReadCounter)
	acc(R0)
	b.Mov(R1, IOACReadBytes).Call(HelperReadIOAC)
	acc(R0)
	b.Mov(R1, SockSegsIn).Call(HelperReadSock)
	acc(R0)

	// Proven impure helpers: update, lookup and map-value access, delete.
	b.LoadMapPtr(R1, genMapHash).MovReg(R2, R10).Sub(R2, 8).MovReg(R3, R10).Sub(R3, 32).
		Call(HelperMapUpdate)
	acc(R0)
	b.LoadMapPtr(R1, genMapHash).MovReg(R2, R10).Sub(R2, 8).Call(HelperMapLookup).
		Jeq(R0, 0, "miss").
		MovReg(R4, R0).
		StoreImm(R4, 0, 11).Store(R4, 8, R7).Load(R1, R4, 0).Load(R2, R4, 8)
	acc(R1)
	acc(R2)
	b.AddReg(R4, R8).Load(R1, R4, 0).Sub(R4, 8).Add(R4, 8).StoreImm(R4, 0, 13)
	acc(R1)
	b.Label("miss")
	// A register-form conditional jump, taken (r7 = 100 > r8 = 8).
	b.emitJump(Insn{Op: OpJgtReg, Dst: R7, Src: R8}, "gt").Mov(R9, 0).Label("gt")
	b.LoadMapPtr(R1, genMapHash).MovReg(R2, R10).Sub(R2, 16).Call(HelperMapDelete)
	acc(R0)

	// Perf output and printk.
	b.LoadMapPtr(R1, genMapPerCPU).MovReg(R2, R10).Sub(R2, 32).Mov(R3, 24).Call(HelperPerfOutput)
	acc(R0)
	b.MovReg(R1, R9).Call(HelperTracePrintk)
	b.MovReg(R0, R9).Exit()
	return isolateInsns(b.MustBuild())
}

// TestSingleInstructionBlocksAgree runs a program in which every block has
// length 1, so each micro kind family — a conditional jump's branch
// micro-op like any other — executes as a block of its own and must match
// the interpreter on R0, cost, helper trace, printk and map end-states.
// (Branches in the middle of longer blocks are TestBranchMicroOps' job.)
func TestSingleInstructionBlocksAgree(t *testing.T) {
	p := singleInsnBlocksProgram()
	lp, err := Load(p, 0)
	if err != nil {
		t.Fatalf("load: %v\n%s", err, p.Disassemble())
	}
	cc, reason := lp.decode()
	if reason != "" {
		t.Fatalf("declined: %q", reason)
	}
	var seen [muHelperCall + 1]bool
	helperCalls := 0
	for pc, in := range p.Insns {
		if in.Op == OpCall && cc.fns[pc] != nil {
			t.Fatalf("pc %d: %v fell back to the generic dispatcher", pc, in)
		}
		if cc.fns[pc] == nil {
			seen[cc.ops[pc].kind] = true
			if cc.ops[pc].kind == muHelperCall {
				helperCalls++
			}
		}
	}
	for pc := range p.Insns {
		if n := len(cc.run(pc)); n > 1 {
			t.Fatalf("pc %d starts a block of %d instructions, want 1", pc, n)
		}
	}
	// Every single-instruction kind (the ones before the pattern super-ops)
	// and all five impure helper call sites.
	for k := muMovImm; k < muStoreZeroRun; k++ {
		if !seen[k] {
			t.Errorf("micro kind %d never decoded: the program no longer covers it", k)
		}
	}
	if helperCalls != 5 {
		t.Fatalf("%d proven impure helper calls, want 5", helperCalls)
	}
	if info := assertCompiledAgreement(t, p, 5); !info.Compiled {
		t.Fatalf("program declined: %+v", info)
	}
}

// branchProgram builds a program whose block at "head" holds one
// conditional jump `op r6, b` (r6 = 2, from args = {1, 2, 3, 4}; register
// forms compare against r7 = b, 1 ≤ b ≤ 3) at position pos — "first",
// "middle" or "last" micro-op of its block — and returns it with the jump's
// pc. On the fall-through edge the same block goes on to a store, a printk
// and a map update, and the taken edge does the same with a different r9,
// so a skipped op, a wrong edge or a wrong instruction count each change
// R0, the cost, the helper trace or the hash map's end-state.
func branchProgram(op Op, b int64, pos string) (*Program, int) {
	bl := genMapsBuilder(fmt.Sprintf("jit/branch/%v/%d/%s", op, b, pos))
	emit := func() {
		bl.Store(R10, -16, R9).MovReg(R1, R9).Call(HelperTracePrintk).
			LoadMapPtr(R1, genMapHash).MovReg(R2, R10).Sub(R2, 16).MovReg(R3, R10).Sub(R3, 32).
			Call(HelperMapUpdate).AddReg(R9, R0)
	}
	bl.Mov(R1, 1).Call(HelperGetArg).MovReg(R6, R0)
	bl.Mov(R1, b-1).Call(HelperGetArg).MovReg(R7, R0)
	bl.Mov(R9, 0).StoreImm(R10, -32, 21).StoreImm(R10, -24, 22)
	if pos == "last" {
		// Never taken, but it makes the jump's fall-through a jump target,
		// which ends the block right after the jump.
		bl.Jeq(R6, 99, "fall")
	}
	bl.Ja("head").Label("head")
	if pos != "first" {
		bl.Add(R9, 1).StoreImm(R10, -8, 7).Lsh(R9, 1)
	}
	jpc := len(bl.insns)
	bl.emitJump(Insn{Op: op, Dst: R6, Src: R7, Imm: b}, "out")
	if pos != "last" {
		bl.Add(R9, 5).Load(R1, R10, -24).AddReg(R9, R1)
	}
	bl.Label("fall").Add(R9, 16)
	emit()
	bl.Ja("done")
	bl.Label("out").Add(R9, 1000)
	emit()
	bl.Label("done").MovReg(R0, R9).Exit()
	return bl.MustBuild(), jpc
}

// TestBranchMicroOps is the differential test for branches inside blocks:
// every conditional opcode, taken and not taken, as the first, a middle and
// the last micro-op of its block, compiled against the interpreter on R0,
// cost, helper trace, printk and map end-states.
func TestBranchMicroOps(t *testing.T) {
	// At 1 ns per instruction the cost is the instruction count plus the
	// helper costs, so one miscounted instruction shows (LargeHW's 0.25 ns
	// rounds most single-instruction errors away).
	unit := sim.LargeHW
	unit.BPFInsnNS = 1
	ops := 0
	for op := OpInvalid; op <= OpArshReg; op++ {
		if !isCondJump(op) {
			continue
		}
		ops++
		outcomes := map[bool]bool{}
		for b := int64(1); b <= 3; b++ {
			taken := condTrue(op, 2, uint64(b))
			outcomes[taken] = true
			for _, pos := range []string{"first", "middle", "last"} {
				p, jpc := branchProgram(op, b, pos)
				lp, err := Load(p, 0)
				if err != nil {
					t.Fatalf("load: %v\n%s", err, p.Disassemble())
				}
				cc, reason := lp.decode()
				if reason != "" {
					t.Fatalf("%s declined: %q", p.Name, reason)
				}
				head := jpc
				for head > 0 && cc.fns[head-1] == nil && !cc.isTarget[head] {
					head--
				}
				run := cc.run(head)
				if k := run[jpc-head].kind; k != muJccImm && k != muJccReg {
					t.Fatalf("%s: pc %d decoded to micro kind %d, not a branch", p.Name, jpc, k)
				}
				at := map[string]bool{
					"first":  jpc == head && len(run) > 1,
					"middle": jpc > head && jpc < head+len(run)-1,
					"last":   jpc > head && jpc == head+len(run)-1,
				}
				if !at[pos] {
					t.Fatalf("%s: branch is op %d of a %d-op block", p.Name, jpc-head, len(run))
				}
				ir := runExecVariantOn(unit, p.Name, p.Insns, 3, false)
				cr := runExecVariantOn(unit, p.Name, p.Insns, 3, true)
				if !cr.info.Compiled {
					t.Fatalf("%s declined: %+v", p.Name, cr.info)
				}
				cr.info = ir.info
				if ir.err != nil || !reflect.DeepEqual(ir, cr) {
					t.Fatalf("%s diverged:\ninterp   %+v\ncompiled %+v\n%s", p.Name, ir, cr, p.Disassemble())
				}
				if (ir.r0 >= 1000) != taken {
					t.Fatalf("%s: R0 = %d; taken edge expected: %v", p.Name, ir.r0, taken)
				}
			}
		}
		if !outcomes[true] || !outcomes[false] {
			t.Fatalf("%v: operands never made it go both ways: %v", op, outcomes)
		}
	}
	if ops != 13 {
		t.Fatalf("covered %d conditional opcodes, want 13", ops)
	}
}
