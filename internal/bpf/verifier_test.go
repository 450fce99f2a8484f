package bpf

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func mustVerify(t *testing.T, p *Program) {
	t.Helper()
	if err := Verify(p, 0); err != nil {
		t.Fatalf("expected program to verify:\n%s\nerror: %v", p.Disassemble(), err)
	}
}

func mustReject(t *testing.T, p *Program, substr string) {
	t.Helper()
	err := Verify(p, 0)
	if err == nil {
		t.Fatalf("expected rejection (%s):\n%s", substr, p.Disassemble())
	}
	if !errors.Is(err, ErrVerification) {
		t.Fatalf("rejection must wrap ErrVerification: %v", err)
	}
	if substr != "" && !strings.Contains(err.Error(), substr) {
		t.Fatalf("rejection reason %q does not mention %q", err.Error(), substr)
	}
}

func trivialProgram() *Program {
	return NewBuilder("trivial").Mov(R0, 0).Exit().MustBuild()
}

func TestVerifyTrivial(t *testing.T) {
	mustVerify(t, trivialProgram())
}

func TestVerifyEmptyProgram(t *testing.T) {
	mustReject(t, &Program{Name: "empty"}, "empty")
}

func TestVerifyTooLong(t *testing.T) {
	b := NewBuilder("long")
	for i := 0; i < 100; i++ {
		b.Mov(R0, 0)
	}
	b.Exit()
	p := b.MustBuild()
	if err := Verify(p, 10); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("length limit: %v", err)
	}
}

func TestVerifyExitWithoutR0(t *testing.T) {
	p := &Program{Name: "nor0", Insns: []Insn{{Op: OpExit}}}
	mustReject(t, p, "R0")
}

func TestVerifyUninitRegisterUse(t *testing.T) {
	p := NewBuilder("uninit").MovReg(R0, R3).Exit().MustBuild()
	mustReject(t, p, "uninitialized")
}

func TestVerifyWriteToR10(t *testing.T) {
	p := NewBuilder("r10").Mov(R10, 5).Mov(R0, 0).Exit().MustBuild()
	mustReject(t, p, "frame pointer")
}

func TestVerifyJumpOutOfRange(t *testing.T) {
	p := &Program{Name: "jmp", Insns: []Insn{
		{Op: OpMovImm, Dst: R0, Imm: 0},
		{Op: OpJeqImm, Dst: R0, Off: 5},
		{Op: OpExit},
	}}
	mustReject(t, p, "out of range")
}

func TestVerifyUnreachable(t *testing.T) {
	p := &Program{Name: "unreach", Insns: []Insn{
		{Op: OpMovImm, Dst: R0, Imm: 0},
		{Op: OpExit},
		{Op: OpMovImm, Dst: R1, Imm: 1}, // dead
		{Op: OpExit},
	}}
	mustReject(t, p, "unreachable")
}

func TestVerifyFallOffEnd(t *testing.T) {
	p := &Program{Name: "fall", Insns: []Insn{
		{Op: OpMovImm, Dst: R0, Imm: 0},
	}}
	mustReject(t, p, "falls off")
}

// TestVerifyRejectsBackEdges: every jump goes forward. A jump to itself or
// to any earlier pc is rejected, and the error names the jump.
func TestVerifyRejectsBackEdges(t *testing.T) {
	for _, c := range []struct {
		name string
		pc   int
		jump Insn
	}{
		{"self", 1, Insn{Op: OpJeqImm, Dst: R0, Off: -1}},
		{"conditional", 1, Insn{Op: OpJneImm, Dst: R0, Imm: 10, Off: -2}},
	} {
		p := &Program{Name: "loop/" + c.name, Insns: []Insn{
			{Op: OpMovImm, Dst: R0, Imm: 0},
			c.jump,
			{Op: OpExit},
		}}
		err := Verify(p, 0)
		var ve *VerifyError
		if !errors.As(err, &ve) || ve.PC != c.pc || ve.Msg != "backward jump" {
			t.Errorf("%s: got %v, want insn %d: backward jump", c.name, err, c.pc)
		}
	}
}

// A division by a constant zero cannot be written: the immediate form of
// div is retired, so its wire form fails as an invalid opcode.
func TestVerifyDivisionByZeroImm(t *testing.T) {
	p := &Program{Name: "div0", Insns: []Insn{
		{Op: OpMovImm, Dst: R0, Imm: 1},
		{Op: Op(9), Dst: R0, Imm: 0}, // div r0, 0
		{Op: OpExit},
	}}
	mustReject(t, p, "insn 1 (op9 r0, 0): invalid opcode 9")
}

func TestVerifyDivisionByKnownZeroReg(t *testing.T) {
	p := NewBuilder("divr0").
		Mov(R0, 1).Mov(R1, 0).DivReg(R0, R1).Exit().MustBuild()
	mustReject(t, p, "known-zero")
}

func TestVerifyShiftRange(t *testing.T) {
	p := NewBuilder("shift").Mov(R0, 1).Lsh(R0, 64).Exit().MustBuild()
	mustReject(t, p, "shift")
}

func TestVerifyStackBounds(t *testing.T) {
	// Store below the stack.
	p := NewBuilder("oob").
		MovReg(R1, R10).
		StoreImm(R1, -(StackSize+8), 1).
		Mov(R0, 0).Exit().MustBuild()
	mustReject(t, p, "out of bounds")

	// Store above the stack top.
	p2 := NewBuilder("oob2").
		MovReg(R1, R10).
		StoreImm(R1, 0, 1). // [r10+0..8) is above the stack
		Mov(R0, 0).Exit().MustBuild()
	mustReject(t, p2, "out of bounds")

	// A store at the last valid slot verifies.
	p3 := NewBuilder("ok").
		MovReg(R1, R10).
		StoreImm(R1, -StackSize, 1).
		StoreImm(R1, -8, 2).
		Mov(R0, 0).Exit().MustBuild()
	mustVerify(t, p3)
}

func TestVerifyUninitializedStackRead(t *testing.T) {
	p := NewBuilder("stackread").
		Load(R0, R10, -8). // never written
		Exit().MustBuild()
	mustReject(t, p, "uninitialized stack")
}

func TestVerifyInitializedStackReadOK(t *testing.T) {
	p := NewBuilder("stackrw").
		StoreImm(R10, -8, 77).
		Load(R0, R10, -8).
		Exit().MustBuild()
	mustVerify(t, p)
}

func TestVerifyStackInitJoin(t *testing.T) {
	// Only one branch initializes [-8]; the join must mark it uninit. The
	// condition must be genuinely unknown (ktime), because a constant
	// condition is now resolved by branch-feasibility pruning.
	p := NewBuilder("join").
		Call(HelperKtime).
		Jeq(R0, 0, "skip").
		StoreImm(R10, -8, 5).
		Label("skip").
		Load(R0, R10, -8).
		Exit().MustBuild()
	mustReject(t, p, "uninitialized stack")
}

func TestVerifyInfeasibleBranchPruned(t *testing.T) {
	// R6 is the constant 1, so `jeq r6, 0` is provably never taken: the
	// path that skips the store is infeasible and the read of [-8] is
	// safe. The kind-only verifier rejected this; the value-range
	// verifier must accept it.
	p := NewBuilder("prune").
		Mov(R6, 1).
		Jeq(R6, 0, "skip").
		StoreImm(R10, -8, 5).
		Label("skip").
		Load(R0, R10, -8).
		Exit().MustBuild()
	mustVerify(t, p)
}

func TestVerifyRegisterOffsetStackAccess(t *testing.T) {
	// An unknown scalar cut to [0, 56] indexes an 8-slot stack array:
	// every 8-byte access from [-64, -8] is in bounds and initialized, so
	// the range-tracking verifier must accept it.
	b := NewBuilder("regoff")
	for off := int32(-64); off < 0; off += 8 {
		b.StoreImm(R10, off, 7)
	}
	p := b.
		Call(HelperKtime).
		Rsh(R0, 61).Lsh(R0, 3). // r0 in {0, 8, ..., 56}
		MovReg(R1, R10).
		Sub(R1, 64).
		AddReg(R1, R0).
		Load(R0, R1, 0).
		Exit().MustBuild()
	mustVerify(t, p)

	// Without the shifts the offset is unbounded and must still be rejected.
	p2 := NewBuilder("regoff-bad").
		StoreImm(R10, -8, 7).
		Call(HelperKtime).
		MovReg(R1, R10).
		AddReg(R1, R0).
		Load(R0, R1, 0).
		Exit().MustBuild()
	mustReject(t, p2, "unknown scalar")
}

func TestVerifyRegisterOffsetMapValueAccess(t *testing.T) {
	// A bounds-checked scalar indexes into a 32-byte map value. The
	// conditional edge refinement must prove r6*8 stays inside the value.
	m := NewHashMap("m", 32, 4)
	b := NewBuilder("mapoff")
	idx := b.AddMap(m)
	p := b.StoreImm(R10, -8, 1).
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 8).
		Call(HelperMapLookup).
		Jeq(R0, 0, "miss").
		MovReg(R6, R0).
		Call(HelperKtime).
		Jgt(R0, 3, "miss"). // r0 <= 3 on fallthrough
		Lsh(R0, 3).         // r0 in {0, 8, 16, 24}
		AddReg(R6, R0).
		Load(R0, R6, 0). // offsets [0,24] + 8 <= 32: in bounds
		Exit().
		Label("miss").
		Mov(R0, 0).
		Exit().MustBuild()
	mustVerify(t, p)
}

func TestVerifyLoadThroughScalar(t *testing.T) {
	p := NewBuilder("badload").
		Mov(R1, 1234).
		Load(R0, R1, 0).
		Exit().MustBuild()
	mustReject(t, p, "load through")
}

func TestVerifyPointerLeakToMemory(t *testing.T) {
	p := NewBuilder("leak").
		MovReg(R1, R10).
		Store(R10, -8, R1). // storing a pointer
		Mov(R0, 0).Exit().MustBuild()
	mustReject(t, p, "pointer leak")
}

func TestVerifyPointerALURestricted(t *testing.T) {
	p := NewBuilder("ptrshift").
		MovReg(R1, R10).
		Lsh(R1, 1).
		Mov(R0, 0).Exit().MustBuild()
	mustReject(t, p, "forbidden ALU op on pointer")
}

func TestVerifyPointerArithmeticUnknownScalar(t *testing.T) {
	p := NewBuilder("ptrvar").
		Call(HelperKtime). // r0 = unknown scalar
		MovReg(R1, R10).
		AddReg(R1, R0).
		Mov(R0, 0).
		Exit().MustBuild()
	mustReject(t, p, "unknown scalar")
}

func TestVerifyMapIndexRange(t *testing.T) {
	p := NewBuilder("badmap").
		LoadMapPtr(R1, 3). // no maps registered
		Mov(R0, 0).Exit().MustBuild()
	mustReject(t, p, "map index")
}

func TestVerifyUnknownHelper(t *testing.T) {
	// 4 and 5 are retired IDs: unassigned, never reused.
	for _, id := range []int64{4, 5, 999} {
		p := NewBuilder("badhelper").Call(id).Exit().MustBuild()
		mustReject(t, p, "unknown helper")
	}
}

func TestVerifyHelperArgTypes(t *testing.T) {
	m := NewHashMap("m", 8, 4)
	b := NewBuilder("badargs")
	idx := b.AddMap(m)
	_ = idx
	// map_lookup with a scalar instead of a map handle.
	p := b.Mov(R1, 5).
		MovReg(R2, R10).
		Call(HelperMapLookup).
		Exit().MustBuild()
	mustReject(t, p, "map handle")
}

func TestVerifyHelperKeyNotStackPtr(t *testing.T) {
	m := NewHashMap("m", 8, 4)
	b := NewBuilder("badkey")
	idx := b.AddMap(m)
	p := b.LoadMapPtr(R1, idx).
		Mov(R2, 1234). // scalar, not a pointer
		Call(HelperMapLookup).
		Exit().MustBuild()
	mustReject(t, p, "stack pointer")
}

func TestVerifyHelperKeyUninitialized(t *testing.T) {
	m := NewHashMap("m", 8, 4)
	b := NewBuilder("uninitkey")
	idx := b.AddMap(m)
	p := b.LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 8). // key bytes never written
		Call(HelperMapLookup).
		Exit().MustBuild()
	mustReject(t, p, "uninitialized stack")
}

func TestVerifyNullCheckRequired(t *testing.T) {
	m := NewHashMap("m", 8, 4)
	b := NewBuilder("nonull")
	idx := b.AddMap(m)
	p := b.StoreImm(R10, -8, 1).
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 8).
		Call(HelperMapLookup).
		Load(R0, R0, 0). // deref without null check
		Exit().MustBuild()
	mustReject(t, p, "NULL")
}

func TestVerifyNullCheckedLookupOK(t *testing.T) {
	m := NewHashMap("m", 8, 4)
	b := NewBuilder("nullok")
	idx := b.AddMap(m)
	p := b.StoreImm(R10, -8, 1).
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 8).
		Call(HelperMapLookup).
		Jeq(R0, 0, "miss").
		Load(R0, R0, 0). // safe after null check
		Exit().
		Label("miss").
		Mov(R0, 0).
		Exit().MustBuild()
	mustVerify(t, p)
}

func TestVerifyMapValueBounds(t *testing.T) {
	m := NewHashMap("m", 16, 4)
	b := NewBuilder("valbounds")
	idx := b.AddMap(m)
	p := b.StoreImm(R10, -8, 1).
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 8).
		Call(HelperMapLookup).
		Jeq(R0, 0, "miss").
		Load(R1, R0, 16). // offset 16..24 is outside the 16-byte value
		Mov(R0, 0).
		Exit().
		Label("miss").
		Mov(R0, 0).
		Exit().MustBuild()
	mustReject(t, p, "outside value size")
}

func TestVerifyPerfOutputSizeMustBeConst(t *testing.T) {
	rb := NewPerCPURing("rb", 1, 4)
	b := NewBuilder("perfsize")
	idx := b.AddMap(rb)
	p := b.StoreImm(R10, -8, 1).
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 8).
		Call(HelperKtime). // clobbers: r0 unknown — reorder below
		MustBuild()
	_ = p
	// Build the real case: size in R3 is unknown.
	b2 := NewBuilder("perfsize2")
	idx2 := b2.AddMap(rb)
	p2 := b2.StoreImm(R10, -8, 1).
		Call(HelperKtime). // r0 = unknown
		LoadMapPtr(R1, idx2).
		MovReg(R2, R10).Sub(R2, 8).
		MovReg(R3, R0). // unknown size
		Call(HelperPerfOutput).
		Exit().MustBuild()
	mustReject(t, p2, "known positive constant")
}

func TestVerifyPerfOutputOK(t *testing.T) {
	rb := NewPerCPURing("rb", 1, 4)
	b := NewBuilder("perfok")
	idx := b.AddMap(rb)
	p := b.StoreImm(R10, -16, 1).
		StoreImm(R10, -8, 2).
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 16).
		Mov(R3, 16).
		Call(HelperPerfOutput).
		Mov(R0, 0).
		Exit().MustBuild()
	mustVerify(t, p)
}

func TestVerifyCallClobbersCallerSaved(t *testing.T) {
	p := NewBuilder("clobber").
		Mov(R1, 0).
		Call(HelperKtime).
		MovReg(R0, R1). // r1 was clobbered by the call
		Exit().MustBuild()
	mustReject(t, p, "uninitialized")
}

func TestVerifyCalleeSavedSurviveCalls(t *testing.T) {
	p := NewBuilder("preserve").
		Mov(R6, 42).
		Call(HelperKtime).
		MovReg(R0, R6).
		Exit().MustBuild()
	mustVerify(t, p)
}

func TestVerifyCondJumpOnPointer(t *testing.T) {
	p := NewBuilder("ptrjmp").
		MovReg(R1, R10).
		Jgt(R1, 5, "x").
		Mov(R0, 0).Exit().
		Label("x").Mov(R0, 1).Exit().MustBuild()
	mustReject(t, p, "")
}

// TestVerifyInvalidOpcode rejects every opcode number outside the ISA —
// the gaps retired opcodes left included — and a call to the retired
// trace_printk helper, at the instruction's own pc. Old corpora still
// decode to these wire values, so they must fail cleanly.
// TestVerifyInvalidOpcode rejects every opcode number outside the ISA —
// the gaps retired opcodes left included — and a call to the retired
// trace_printk helper, at the instruction's own pc. Old corpora still
// decode to these wire values, so they must fail cleanly.
func TestVerifyInvalidOpcode(t *testing.T) {
	want := map[Insn]string{
		{Op: Op(200)}:         "invalid opcode 200",
		{Op: OpCall, Imm: 13}: "unknown helper 13",
	}
	// mul, div, mod, modr, and, andr, or, orr, xor, xorr, lshr, rshr, neg,
	// jgtr, jger, jlt, jltr, jler, jset, arsh, arshr.
	for _, op := range []Op{7, 9, 11, 12, 13, 14, 15, 16, 17, 18, 20, 22, 23, 34, 36, 37, 38, 40, 41, 44, 45} {
		want[Insn{Op: op, Dst: R0, Src: R0, Imm: 1}] = fmt.Sprintf("invalid opcode %d", op)
	}
	for in, msg := range want {
		p := &Program{Name: "bad", Insns: []Insn{{Op: OpMovImm, Dst: R0}, in, {Op: OpExit}}}
		var ve *VerifyError
		if err := Verify(p, 0); !errors.As(err, &ve) || ve.PC != 1 || ve.Msg != msg {
			t.Errorf("%v: got %v, want insn 1: %s", in, err, msg)
		}
	}
}

func TestVerifyRegisterRange(t *testing.T) {
	p := &Program{Name: "badreg", Insns: []Insn{
		{Op: OpMovImm, Dst: Reg(12), Imm: 0},
		{Op: OpExit},
	}}
	mustReject(t, p, "register out of range")
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("x").Mov(R0, 0).Jeq(R0, 0, "nowhere").Exit().Build(); err == nil {
		t.Fatalf("undefined label must fail assembly")
	}
	b := NewBuilder("y").Label("l").Label("l")
	if _, err := b.Mov(R0, 0).Exit().Build(); err == nil {
		t.Fatalf("duplicate label must fail assembly")
	}
}

func TestDisassembleSmoke(t *testing.T) {
	m := NewHashMap("m", 8, 4)
	b := NewBuilder("dis")
	idx := b.AddMap(m)
	p := b.StoreImm(R10, -8, 1).
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 8).
		Call(HelperMapLookup).
		Jeq(R0, 0, "miss").
		Load(R0, R0, 0).
		Exit().
		Label("miss").Mov(R0, 0).Exit().MustBuild()
	text := p.Disassemble()
	for _, want := range []string{"ldmap", "call 1", "jeq", "exit", "[r10-8]"} {
		if !strings.Contains(text, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func TestVerifyRejectsHelperOnWrongMapKind(t *testing.T) {
	// Regression for a divergence found by FuzzVerify: perf_event_output
	// verified against any map type, then faulted in the VM's type
	// assertion at runtime. The verifier must reject the
	// mismatch statically, like real eBPF's map/helper compatibility check.
	// The map helpers take any map but a ring: a ring is keyless, and
	// its Map methods do nothing a program could use.
	cases := []struct {
		name   string
		helper int64
		mapIdx int
		ok     bool
	}{
		{"perf output on array map", HelperPerfOutput, genMapArray, false},
		{"perf output on ring", HelperPerfOutput, genMapRing, true},
		{"perf output on per-cpu ring", HelperPerfOutput, genMapPerCPU, true},
		{"map lookup on ring", HelperMapLookup, genMapRing, false},
		{"map update on per-cpu ring", HelperMapUpdate, genMapPerCPU, false},
		{"map delete on ring", HelperMapDelete, genMapRing, false},
		{"map delete on hash map", HelperMapDelete, genMapHash, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder("kind")
			for _, m := range newGenMaps() {
				b.AddMap(m)
			}
			b.StoreImm(R10, -8, 0).
				LoadMapPtr(R1, tc.mapIdx).
				MovReg(R2, R10).Sub(R2, 8)
			if tc.helper == HelperPerfOutput {
				b.Mov(R3, 8)
			}
			p := b.Call(tc.helper).Exit().MustBuild()
			err := Verify(p, 0)
			if tc.ok && err != nil {
				t.Fatalf("compatible map rejected: %v", err)
			}
			var ve *VerifyError
			if call := len(p.Insns) - 2; !tc.ok && (!errors.As(err, &ve) || ve.PC != call) {
				t.Fatalf("incompatible map: got %v, want a rejection of the call at insn %d", err, call)
			}
		})
	}
}
