package bpf

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

// This file tests the post-verify JIT (compile.go): every verified program
// compiles, and the compiled path must be observationally identical to the
// interpreter — same R0, same cost accounting, same helper trace and map
// end-states. The named TestCompileRegression_* cases pin
// interpreter-vs-compiled divergences that the differential harness is
// prone to (scalar/pointer dispatch, unsigned ALU edge cases, helper
// object identity); each also has a raw corpus entry under
// testdata/fuzz/FuzzVerify so the fuzzer keeps revisiting the exact
// programs.

// assertCompiledAgreement runs p's instructions twice against fresh
// kernels, tasks, and map tables — once interpreted, once through the JIT,
// which must compile it — and fails on any observable divergence.
func assertCompiledAgreement(t *testing.T, p *Program, seed int64) {
	t.Helper()
	ir := runExecVariant(t, p.Name+"/interp", p.Insns, seed, false)
	cr := runExecVariant(t, p.Name+"/jit", p.Insns, seed, true)
	if (ir.err == nil) != (cr.err == nil) ||
		(ir.err != nil && ir.err.Error() != cr.err.Error()) {
		t.Fatalf("error diverged:\ninterp   %v\ncompiled %v\n%s", ir.err, cr.err, p.Disassemble())
	}
	if ir.r0 != cr.r0 {
		t.Fatalf("R0 diverged: interp %#x, compiled %#x\n%s", ir.r0, cr.r0, p.Disassemble())
	}
	if ir.cost != cr.cost {
		t.Fatalf("cost diverged: interp %d, compiled %d\n%s", ir.cost, cr.cost, p.Disassemble())
	}
	if !reflect.DeepEqual(ir.trace, cr.trace) {
		t.Fatalf("helper traces diverged:\ninterp   %v\ncompiled %v\n%s",
			ir.trace, cr.trace, p.Disassemble())
	}
	for i := range ir.maps {
		if ir.maps[i] != cr.maps[i] {
			t.Fatalf("map %d end-state diverged:\ninterp   %s\ncompiled %s\n%s",
				i, ir.maps[i], cr.maps[i], p.Disassemble())
		}
	}
}

// tableFingerprint renders a table's entries in key order, each through
// format.
func tableFingerprint(t *u64Table, format string) string {
	var keys []uint64
	vals := map[uint64][]byte{}
	t.each(func(k uint64, v []byte) bool {
		keys = append(keys, k)
		vals[k] = v
		return true
	})
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, format, k, vals[k])
	}
	return b.String()
}

// mapFingerprint renders a map's end-state canonically so two variants can
// be compared byte-for-byte. Ring buffers fold in their drain contents and
// submit/drop accounting; hash and per-task maps sort their keys.
func mapFingerprint(m Map) string {
	switch mm := m.(type) {
	case *HashMap:
		return "hash:" + tableFingerprint(&mm.t, "%x=%x;")
	case *ArrayMap:
		return fmt.Sprintf("array:%x", mm.values)
	case *PerTaskMap:
		return "pertask:" + tableFingerprint(&mm.t, "%d=%x;")
	case *PerCPURing:
		// Per-CPU counters first (Drain moves them), then every ring's
		// contents in CPU order: routing, overwrites and payloads all show.
		st := mm.AppendCPUStats(nil)
		var all Batch
		for cpu := range st {
			mm.DrainBatch(cpu, &all, 0)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "ring:%+v:", st)
		for i := 0; i < all.Len(); i++ {
			fmt.Fprintf(&b, "%x ", all.Sample(i))
		}
		return b.String()
	default:
		return fmt.Sprintf("unknown:%s", m.Name())
	}
}

// variantResult is one program execution observed in full.
type variantResult struct {
	r0    uint64
	cost  int64
	err   error
	trace []HelperCall
	maps  []string
}

// runExecVariant runs insns against a fresh kernel, task, and map table so
// both sides of a differential comparison start from identical state;
// compile selects the JIT.
func runExecVariant(tb testing.TB, name string, insns []Insn, seed int64, compile bool) variantResult {
	if compile {
		return runExecVariantOn(tb, sim.LargeHW, name, insns, seed, jit)
	}
	return runExecVariantOn(tb, sim.LargeHW, name, insns, seed, nil)
}

// jit compiles lp the way a deploy does.
func jit(lp *LoadedProgram) error {
	_, err := lp.Compile()
	return err
}

// runExecVariantOn is runExecVariant on a chosen hardware profile, with
// compile the JIT to run (nil interprets). A verified program always
// compiles, so a compile error fails tb.
func runExecVariantOn(tb testing.TB, hw sim.HardwareProfile, name string, insns []Insn, seed int64, compile func(*LoadedProgram) error) variantResult {
	tb.Helper()
	p := &Program{Name: name, Insns: insns, Maps: newGenMaps()}
	lp, err := Load(p, fuzzMaxInsns)
	if err != nil {
		return variantResult{err: err}
	}
	if compile != nil {
		if err := compile(lp); err != nil {
			tb.Fatalf("verified program does not compile: %v\n%s", err, p.Disassemble())
		}
	}
	lp.SetCallTrace(true)
	k := kernel.New(hw, seed, 0)
	task := k.NewTask("variant")
	r0, cost, rerr := lp.Run(task, []uint64{1, 2, 3, 4})
	res := variantResult{r0: r0, cost: cost, err: rerr, trace: lp.CallTrace()}
	for _, m := range p.Maps {
		res.maps = append(res.maps, mapFingerprint(m))
	}
	return res
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
	info, err := lp.Compile()
	if err != nil || info != (CompileInfo{Insns: 2, Ops: 1}) {
		t.Fatalf("straight-line program: %+v, %v", info, err)
	}
	// The compiled form has consumed the verifier's proof: it is released,
	// and asking again reports the same size, not an error.
	if lp.analysis != nil {
		t.Fatal("analysis still held after a successful Compile")
	}
	if again, err := lp.Compile(); again != info || err != nil {
		t.Fatalf("second Compile: %+v, %v; want %+v", again, err, info)
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

// TestCompileFallbackMatchesInterpreter covers the only programs Compile
// refuses: ones that bypassed Load, or whose instructions changed after
// it. Each gets a *VerifyError naming the pc no proof covers, gives up its
// analysis, and stays on the interpreter.
func TestCompileFallbackMatchesInterpreter(t *testing.T) {
	t.Run("no-analysis", func(t *testing.T) {
		p := &Program{Name: "jit/no-analysis", Insns: []Insn{
			{Op: OpMovImm, Dst: R0, Imm: 9},
			{Op: OpExit},
		}}
		lp := &LoadedProgram{prog: p, ptrALU: make([]bool, len(p.Insns))}
		wantCompileError(t, lp, 0)
		if r0, err := runsInterpreted(t, lp); r0 != 9 || err != nil {
			t.Fatalf("interpreted run: r0=%d err=%v", r0, err)
		}
	})

	t.Run("unsupported-opcode", func(t *testing.T) {
		lp := patchedProgram(t, 0, Insn{Op: Op(250)})
		wantCompileError(t, lp, 0)
		if _, err := runsInterpreted(t, lp); !errors.Is(err, ErrRuntime) {
			t.Fatalf("interpreted run: %v, want a runtime fault", err)
		}
	})

	t.Run("unproven-access", func(t *testing.T) {
		// R5 is uninitialized at pc 0: no proof it points anywhere.
		for _, in := range []Insn{
			{Op: OpLoad, Dst: R0, Src: R5},
			{Op: OpStore, Dst: R5, Src: R0},
			{Op: OpStoreImm, Dst: R5, Imm: 1},
		} {
			lp := patchedProgram(t, 0, in)
			wantCompileError(t, lp, 0)
			if _, err := runsInterpreted(t, lp); !errors.Is(err, ErrRuntime) {
				t.Fatalf("%v: interpreted run: %v, want a runtime fault", in, err)
			}
		}
	})

	// The interpreter trusts the verifier's control-flow checks, so these
	// programs are only refused, not run.
	t.Run("malformed-control-flow", func(t *testing.T) {
		p := &Program{Name: "jit/wild-jump", Insns: []Insn{
			{Op: OpJeqImm, Off: 5},
			{Op: OpExit},
		}}
		wantCompileError(t, &LoadedProgram{prog: p, ptrALU: make([]bool, len(p.Insns)), analysis: &Analysis{}}, 0)
		// Straight-line code, an unknown opcode, an unproven access and a
		// helper call with no successor all run off the end.
		for _, in := range []Insn{
			{Op: OpMovImm, Dst: R0, Imm: 2},
			{Op: Op(250)},
			{Op: OpLoad, Dst: R0, Src: R5},
			{Op: OpCall, Imm: HelperGetPID},
		} {
			wantCompileError(t, patchedProgram(t, 1, in), 1)
		}
	})
}

// patchedProgram loads the trivial program `mov r0, 1; exit` and then
// overwrites the instruction at pc, so the retained analysis (which still
// marks both pcs reached) proves a program that is no longer there.
func patchedProgram(t *testing.T, pc int, in Insn) *LoadedProgram {
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
	return lp
}

// wantCompileError requires Compile — the whole merged pass, not one step
// of it — to fail with a *VerifyError at pc that wraps ErrVerification,
// release the analysis and leave the program uncompiled.
func wantCompileError(t *testing.T, lp *LoadedProgram, pc int) {
	t.Helper()
	in := lp.prog.Insns[pc]
	_, err := lp.Compile()
	var ve *VerifyError
	if !errors.Is(err, ErrVerification) || !errors.As(err, &ve) || ve.PC != pc {
		t.Fatalf("%v at pc %d: Compile error %v, want a verification error at pc %d", in, pc, err, pc)
	}
	if lp.analysis != nil || lp.compiled != nil {
		t.Fatalf("%v at pc %d: analysis or compiled form held after a failed Compile", in, pc)
	}
}

// runsInterpreted runs lp once and requires the interpreter to have run
// it, returning R0 and the run's error.
func runsInterpreted(t *testing.T, lp *LoadedProgram) (uint64, error) {
	t.Helper()
	k := kernel.New(sim.LargeHW, 1, 0)
	r0, _, err := lp.Run(k.NewTask("t"), nil)
	if st := lp.JITStats(); st.Compiled || st.InterpRuns != 1 || st.CompiledRuns != 0 {
		t.Fatalf("run after a failed Compile: %+v", st)
	}
	return r0, err
}

// TestCompileGeneratedProgramsAgree sweeps the constructive generator as an
// inline differential oracle (the always-on complement of
// FuzzVerifyThenRun); the oracle fails on any generated program that does
// not compile.
func TestCompileGeneratedProgramsAgree(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		p := genProgram(seed, int(seed%40)+1)
		if err := Verify(p, fuzzMaxInsns); err != nil {
			t.Fatalf("seed %d: generated program rejected: %v", seed, err)
		}
		assertCompiledAgreement(t, p, seed)
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
	assertCompiledAgreement(t, jitHighBitProgram(), 1)
}

// Divergence found during development: division is unsigned on the raw
// bit pattern and yields 0 on a zero divisor; a signed specialization (or
// one that panics on division by zero) diverges or crashes. The verifier
// rejects a divisor known to be zero, so the zero arrives through an
// out-of-range get_tracepoint_arg the verifier cannot bound.
func TestCompileRegression_DivByZero(t *testing.T) {
	p := jitDivZeroProgram()
	if err := Verify(p, 0); err != nil {
		t.Fatalf("verify: %v", err)
	}
	assertCompiledAgreement(t, p, 1)
}

func jitDivZeroProgram() *Program {
	return &Program{Name: "jit/div-zero", Insns: []Insn{
		{Op: OpMovImm, Dst: R1, Imm: 99},
		{Op: OpCall, Imm: HelperGetArg}, // OOB index → R0 = 0 at runtime
		{Op: OpMovReg, Dst: R2, Src: R0},
		{Op: OpMovImm, Dst: R1, Imm: 10},
		{Op: OpDivReg, Dst: R1, Src: R2}, // 10/0 → 0
		{Op: OpMovImm, Dst: R4, Imm: -7},
		{Op: OpMovImm, Dst: R5, Imm: 2},
		{Op: OpDivReg, Dst: R4, Src: R5}, // unsigned: huge, not -3
		{Op: OpAddReg, Dst: R1, Src: R4},
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
	assertCompiledAgreement(t, jitUnsignedCompareProgram(), 1)
}

// Divergence found during development: every map lookup registers a fresh
// object id even for the same backing value, and the recorded trace (and
// any pointer stored to a map) exposes those ids. The compiled path must
// register objects in the same order as the interpreter, and two handles
// to one map value must alias.
func TestCompileRegression_MapLookupObjectIdentity(t *testing.T) {
	assertCompiledAgreement(t, jitLookupIdentityProgram(), 1)
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
// pinned FuzzVerify corpus entry. An entry is the wire-encoded program, so
// the exact divergence-triggering instruction sequences keep being
// revisited by the fuzzer — whose accept side runs the interpreter-vs-JIT
// differential — even as the generator and mutator evolve.
func jitRegressionCorpus() map[string]*Program {
	return map[string]*Program{
		"seed-jit-high-bit":        jitHighBitProgram(),
		"seed-jit-div-zero":        jitDivZeroProgram(),
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
		path := filepath.Join("testdata", "fuzz", "FuzzVerify", name)
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", encodeInsns(p.Insns))
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

// decodeIsolated is decode with every pc a jump target, so each reached
// instruction that compiles to a micro-op is a block of exactly one.
func decodeIsolated(lp *LoadedProgram) (*compiler, error) {
	n := len(lp.prog.Insns)
	cc := &compiler{lp: lp, p: lp.prog, a: lp.analysis,
		fns: make([]copFn, n), ops: make([]microOp, n), isTarget: make([]bool, n)}
	for pc, in := range cc.p.Insns {
		cc.isTarget[pc] = true
		if err := cc.compileInsn(pc, in); err != nil {
			return nil, err
		}
	}
	return cc, nil
}

// compileIsolated is Compile from decodeIsolated's blocks of one.
func compileIsolated(lp *LoadedProgram) error {
	cc, err := decodeIsolated(lp)
	if err != nil {
		return err
	}
	cc.fuse()
	lp.analysis, lp.compiled = nil, cc.fns[0]
	return nil
}

// singleInsnBlocksProgram touches every micro-op family once; r9
// accumulates each result so a wrong one changes R0. args = {1, 2, 3, 4}.
func singleInsnBlocksProgram() *Program {
	b := genMapsBuilder("jit/single-insn-blocks")
	acc := func(r Reg) { b.AddReg(R9, r) }
	b.Mov(R9, 0)

	// Scalars the verifier cannot pin down: r6 = 0 (out-of-range
	// argument), r7 = 100, and r8 = 4 (from args[3] = 4), which the shifts
	// bound to [0, 7].
	b.Mov(R1, 99).Call(HelperGetArg).MovReg(R6, R0)
	b.Mov(R1, 3).Call(HelperGetArg).MovReg(R7, R0).Mov(R2, 25).MulReg(R7, R2)
	b.MovReg(R8, R0).Lsh(R8, 61).Rsh(R8, 61)

	// ALU, immediate forms.
	b.Mov(R1, -1000).Add(R1, 7).Sub(R1, 3).Lsh(R1, 9).Rsh(R1, 2)
	acc(R1)

	// ALU, register forms, and division by zero.
	b.Mov(R1, 77).MovReg(R2, R1).AddReg(R1, R7).SubReg(R1, R8).MulReg(R1, R7).DivReg(R1, R2)
	acc(R1)
	b.Mov(R1, 10).DivReg(R1, R6)
	acc(R1)

	// Exact stack stores and loads.
	b.StoreImm(R10, -8, 0x0102030405060708).Store(R10, -16, R7).Load(R1, R10, -8).Load(R2, R10, -16)
	acc(R1)
	acc(R2)

	// Pointer ALU (immediate and register, add and sub) and dynamic stack
	// access: interval arithmetic bounds r3 to [fp-39, fp-18], all of it
	// initialized; at run time it is fp-28.
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
	// A register-form conditional jump, taken (r7 = 100, r8 = 4).
	b.JneReg(R7, R8, "ne").Mov(R9, 0).Label("ne")
	b.LoadMapPtr(R1, genMapHash).MovReg(R2, R10).Sub(R2, 16).Call(HelperMapDelete)
	acc(R0)

	// Perf output.
	b.LoadMapPtr(R1, genMapPerCPU).MovReg(R2, R10).Sub(R2, 32).Mov(R3, 24).Call(HelperPerfOutput)
	acc(R0)
	b.MovReg(R0, R9).Exit()
	return b.MustBuild()
}

// TestSingleInstructionBlocksAgree compiles a program so that every block
// has length 1 (decodeIsolated), so each micro kind family — a conditional
// jump's branch micro-op like any other — executes as a block of its own
// and must match the interpreter on R0, cost, helper trace and map
// end-states.
// (Branches in the middle of longer blocks are TestBranchMicroOps' job.)
func TestSingleInstructionBlocksAgree(t *testing.T) {
	p := singleInsnBlocksProgram()
	lp, err := Load(p, 0)
	if err != nil {
		t.Fatalf("load: %v\n%s", err, p.Disassemble())
	}
	cc, err := decodeIsolated(lp)
	if err != nil {
		t.Fatal(err)
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
	// Every single-instruction kind (the ones before the pattern super-ops,
	// less the blank gaps retired kinds left) and all four impure helper
	// call sites.
	for k := muMovImm; k < muStoreZeroRun; k++ {
		gap := k > muSubReg && k < muPtrAddImm &&
			k != muMulReg && k != muDivReg && k != muLshImm && k != muRshImm
		if !seen[k] && !gap {
			t.Errorf("micro kind %d never decoded: the program no longer covers it", k)
		}
	}
	if helperCalls != 4 {
		t.Fatalf("%d proven impure helper calls, want 4", helperCalls)
	}
	ir := runExecVariant(t, p.Name, p.Insns, 5, false)
	cr := runExecVariantOn(t, sim.LargeHW, p.Name, p.Insns, 5, compileIsolated)
	if ir.err != nil || !reflect.DeepEqual(ir, cr) {
		t.Fatalf("diverged:\ninterp   %+v\ncompiled %+v\n%s", ir, cr, p.Disassemble())
	}
}

// branchProgram builds a program whose block at "head" holds one
// conditional jump `op r6, b` (r6 = 2, from args = {1, 2, 3, 4}; register
// forms compare against r7 = b, 1 ≤ b ≤ 3) at position pos — "first",
// "middle" or "last" micro-op of its block — and returns it with the jump's
// pc. On the fall-through edge the same block goes on to a store and a map
// update, and the taken edge does the same with a different r9,
// so a skipped op, a wrong edge or a wrong instruction count each change
// R0, the cost, the helper trace or the hash map's end-state.
func branchProgram(op Op, b int64, pos string) (*Program, int) {
	bl := genMapsBuilder(fmt.Sprintf("jit/branch/%v/%d/%s", op, b, pos))
	emit := func() {
		bl.Store(R10, -16, R9).
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
	// Never taken (r6 = 2), but it makes "head" a jump target.
	bl.Jeq(R6, 99, "head").Label("head")
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
	bl.Jne(R6, 99, "done") // always taken
	bl.Label("out").Add(R9, 1000)
	emit()
	bl.Label("done").MovReg(R0, R9).Exit()
	return bl.MustBuild(), jpc
}

// TestBranchMicroOps is the differential test for branches inside blocks:
// every conditional opcode, taken and not taken, as the first, a middle and
// the last micro-op of its block, compiled against the interpreter on R0,
// cost, helper trace and map end-states.
func TestBranchMicroOps(t *testing.T) {
	// At 1 ns per instruction the cost is the instruction count plus the
	// helper costs, so one miscounted instruction shows (LargeHW's 0.25 ns
	// rounds most single-instruction errors away).
	unit := sim.LargeHW
	unit.BPFInsnNS = 1
	ops := 0
	for op := OpInvalid; op <= OpExit; op++ {
		if !isJump(op) {
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
				cc, err := lp.decode()
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
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
				ir := runExecVariantOn(t, unit, p.Name, p.Insns, 3, nil)
				cr := runExecVariantOn(t, unit, p.Name, p.Insns, 3, jit)
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
	if ops != 7 {
		t.Fatalf("covered %d conditional opcodes, want 7", ops)
	}
}
