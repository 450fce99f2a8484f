package bpf

import (
	"math"
	"testing"
)

// optimizeAndRun optimizes p, asserts the result still verifies and that
// both versions return the same R0, and returns the optimized program
// with its stats.
func optimizeAndRun(t *testing.T, p *Program) (*Program, OptStats) {
	t.Helper()
	opt, stats, err := Optimize(p, 0)
	if err != nil {
		t.Fatalf("optimize:\n%s\n%v", p.Disassemble(), err)
	}
	if stats.BeforeInsns != len(p.Insns) || stats.AfterInsns != len(opt.Insns) {
		t.Fatalf("stats insn counts %d/%d do not match programs %d/%d",
			stats.BeforeInsns, stats.AfterInsns, len(p.Insns), len(opt.Insns))
	}
	task := testTask()
	lpO, err := Load(p, 0)
	if err != nil {
		t.Fatalf("load original: %v", err)
	}
	lpN, err := Load(opt, 0)
	if err != nil {
		t.Fatalf("load optimized:\n%s\n%v", opt.Disassemble(), err)
	}
	r0, _, errO := lpO.Run(task, nil)
	r1, _, errN := lpN.Run(task, nil)
	if errO != nil || errN != nil {
		t.Fatalf("run: original %v, optimized %v", errO, errN)
	}
	if r0 != r1 {
		t.Fatalf("behavior changed: original R0=%d, optimized R0=%d\noriginal:\n%s\noptimized:\n%s",
			r0, r1, p.Disassemble(), opt.Disassemble())
	}
	return opt, stats
}

func TestOptimizeConstFoldAndDCE(t *testing.T) {
	p := NewBuilder("fold").
		Mov(R1, 6).
		Mov(R2, 7).
		MulReg(R1, R2).
		MovReg(R0, R1).
		Exit().
		MustBuild()
	opt, _ := optimizeAndRun(t, p)
	if len(opt.Insns) != 2 {
		t.Fatalf("expected 2 insns (mov r0, 42; exit), got:\n%s", opt.Disassemble())
	}
	if in := opt.Insns[0]; in.Op != OpMovImm || in.Dst != R0 || in.Imm != 42 {
		t.Fatalf("expected mov r0, 42, got %q", in.String())
	}
}

func TestOptimizeBranchAlwaysTaken(t *testing.T) {
	p := NewBuilder("always").
		Mov(R0, 5).
		Jeq(R0, 5, "out").
		Mov(R0, 99). // provably unreachable
		Label("out").
		Exit().
		MustBuild()
	opt, _ := optimizeAndRun(t, p)
	wantMovExit(t, opt, 5) // the branch simplified, the mov it skipped unreached
}

// wantMovExit fails unless opt is exactly mov r0, imm; exit.
func wantMovExit(t *testing.T, opt *Program, imm int64) {
	t.Helper()
	if len(opt.Insns) != 2 || opt.Insns[0] != (Insn{Op: OpMovImm, Dst: R0, Imm: imm}) || opt.Insns[1].Op != OpExit {
		t.Fatalf("expected mov r0, %d; exit, got:\n%s", imm, opt.Disassemble())
	}
}

func TestOptimizeBranchNeverTaken(t *testing.T) {
	p := NewBuilder("never").
		Mov(R0, 5).
		Jeq(R0, 6, "other").
		Exit().
		Label("other").
		Mov(R0, 1).
		Exit().
		MustBuild()
	opt, _ := optimizeAndRun(t, p)
	wantMovExit(t, opt, 5) // the never-taken branch dropped
}

func TestOptimizeDeadStore(t *testing.T) {
	p := NewBuilder("deadstore").
		StoreImm(R10, -8, 41).
		StoreImm(R10, -8, 42). // first store is dead
		Load(R0, R10, -8).
		Exit().
		MustBuild()
	opt, _ := optimizeAndRun(t, p)
	if len(opt.Insns) != 3 || opt.Insns[0] != p.Insns[1] {
		t.Fatalf("expected exactly the shadowed store removed, got:\n%s", opt.Disassemble())
	}
}

// helperReadsStoreProgram stores a map key and value, hands both to
// map_update_elem, then shadows the first value word with a second store:
// the helper reads its buffers, so dead-store elimination must keep the
// first store although nothing after the call loads it. R0 is the value
// the map saw (0x5a). Shared with FuzzOptimize's and
// FuzzAnalyzeDifferential's raw-mode seed corpora.
func helperReadsStoreProgram() *Program {
	b := NewBuilder("opt/helper-reads-store")
	for _, m := range newGenMaps() {
		b.AddMap(m)
	}
	return b.
		StoreImm(R10, -8, 3).     // key
		StoreImm(R10, -24, 0x5a). // value word 0, read only by the helper
		StoreImm(R10, -16, 1).    // value word 1
		LoadMapPtr(R1, genMapHash).
		MovReg(R2, R10).Sub(R2, 8).
		MovReg(R3, R10).Sub(R3, 24).
		Call(HelperMapUpdate).
		StoreImm(R10, -24, 0).
		LoadMapPtr(R1, genMapHash).
		MovReg(R2, R10).Sub(R2, 8).
		Call(HelperMapLookup).
		Jeq(R0, 0, "miss").
		Load(R0, R0, 0).
		Exit().
		Label("miss").
		Mov(R0, 0).
		Exit().
		MustBuild()
}

func TestOptimizeKeepsStoreReadByHelper(t *testing.T) {
	opt, _ := optimizeAndRun(t, helperReadsStoreProgram()) // also asserts R0 unchanged (0x5a)
	for _, in := range opt.Insns {
		if in.Op == OpStoreImm && in.Imm == 0x5a {
			return
		}
	}
	t.Fatalf("store read by map_update_elem was eliminated:\n%s", opt.Disassemble())
}

func TestOptimizeDeadPureCall(t *testing.T) {
	p := NewBuilder("deadcall").
		Call(HelperKtime). // result overwritten before any read
		Mov(R0, 7).
		Exit().
		MustBuild()
	opt, _ := optimizeAndRun(t, p)
	wantMovExit(t, opt, 7) // the dead ktime call removed
}

func TestOptimizeKeepsImpureCall(t *testing.T) {
	p := genMapsBuilder("impure").
		StoreImm(R10, -8, 5).
		LoadMapPtr(R1, genMapHash).
		MovReg(R2, R10).Sub(R2, 8).
		Call(HelperMapDelete). // side effect: must survive even with R0 dead
		Mov(R0, 0).
		Exit().
		MustBuild()
	opt, _ := optimizeAndRun(t, p)
	found := false
	for _, in := range opt.Insns {
		if in.Op == OpCall && in.Imm == HelperMapDelete {
			found = true
		}
	}
	if !found {
		t.Fatalf("map_delete_elem call missing from:\n%s", opt.Disassemble())
	}
}

func TestOptimizeJumpRemap(t *testing.T) {
	// A live conditional jump over a region containing dead code: dropping
	// the dead instructions must retarget the jump.
	p := NewBuilder("remap").
		Call(HelperKtime).
		Jeq(R0, 0, "zero").
		Mov(R3, 1). // dead
		Mov(R0, 10).
		Exit().
		Label("zero").
		Mov(R0, 20).
		Exit().
		MustBuild()
	opt, _ := optimizeAndRun(t, p)
	if err := Verify(opt, 0); err != nil {
		t.Fatalf("remapped program does not verify:\n%s\n%v", opt.Disassemble(), err)
	}
	if len(opt.Insns) != len(p.Insns)-1 || opt.Insns[2] != p.Insns[3] {
		t.Fatalf("expected exactly the dead mov removed:\n%s", opt.Disassemble())
	}
}

func TestOptimizeMinimalProgramUnchanged(t *testing.T) {
	p := NewBuilder("minimal").
		Call(HelperKtime).
		Exit().
		MustBuild()
	opt, stats := optimizeAndRun(t, p)
	if stats.Saved() != 0 || opt != p {
		t.Fatalf("minimal program should be returned untouched, got %+v:\n%s", stats, opt.Disassemble())
	}
}

// Scalars whose bits fall in the VM's pointer-tagged range must fold
// consistently with what the VM executes (static ALU dispatch makes the
// scalar path evalALU regardless of the value's tag bits).
func TestOptimizeTaggedScalarFold(t *testing.T) {
	p := NewBuilder("tagged").
		Mov(R1, math.MinInt64).
		Lsh(R1, 1). // wraps to 0 under evalALU
		MovReg(R0, R1).
		Exit().
		MustBuild()
	opt, _ := optimizeAndRun(t, p)
	if in := opt.Insns[0]; in.Op != OpMovImm || in.Imm != 0 {
		t.Fatalf("expected fold to mov r0, 0, got:\n%s", opt.Disassemble())
	}
}

func TestOptimizeRejectsUnverifiableInput(t *testing.T) {
	p := &Program{Name: "bad", Insns: []Insn{{Op: OpExit}}} // R0 uninitialized
	if _, _, err := Optimize(p, 0); err == nil {
		t.Fatal("expected error for unverifiable input")
	}
}
