package bpf

import (
	"fmt"
	"testing"
)

func analyzeOK(t *testing.T, p *Program) *Analysis {
	t.Helper()
	a, err := Analyze(p, 0)
	if err != nil {
		t.Fatalf("analyze:\n%s\n%v", p.Disassemble(), err)
	}
	return a
}

func TestLivenessRegisters(t *testing.T) {
	p := NewBuilder("live-regs").
		Mov(R1, 1).     // pc 0: R1 live until pc 2
		Mov(R2, 2).     // pc 1: R2 dead (never read)
		MovReg(R0, R1). // pc 2
		Exit().         // pc 3
		MustBuild()
	lv := analyzeOK(t, p).Liveness()
	if lv.LiveOutRegs(0)&regBit(R1) == 0 {
		t.Fatal("R1 must be live after pc 0")
	}
	if lv.LiveOutRegs(1)&regBit(R2) != 0 {
		t.Fatal("R2 must be dead after pc 1")
	}
	if lv.LiveOutRegs(2)&regBit(R0) == 0 {
		t.Fatal("R0 must be live after pc 2 (read by exit)")
	}
	if lv.LiveOutRegs(3) != 0 {
		t.Fatal("nothing is live after exit")
	}
}

func TestLivenessStackBytes(t *testing.T) {
	p := NewBuilder("live-stack").
		StoreImm(R10, -8, 7).  // pc 0: bytes -8..-1 live (read at pc 2)
		StoreImm(R10, -16, 9). // pc 1: bytes -16..-9 dead
		Load(R0, R10, -8).     // pc 2
		Exit().
		MustBuild()
	lv := analyzeOK(t, p).Liveness()
	for i := 0; i < 8; i++ {
		if !lv.LiveOutStackByte(0, StackSize-8+i) {
			t.Fatalf("stack byte -8+%d must be live after pc 0", i)
		}
		if lv.LiveOutStackByte(1, StackSize-16+i) {
			t.Fatalf("stack byte -16+%d must be dead after pc 1", i)
		}
	}
}

func TestLivenessHelperStackArgs(t *testing.T) {
	// PerfOutput reads size bytes through an ArgPtrSized argument: the
	// buffer bytes must be live at the store that fills them.
	b := NewBuilder("live-helper")
	rb := b.AddMap(NewPerCPURing("rb", 1, 4))
	b.StoreImm(R10, -8, 42).
		LoadMapPtr(R1, rb).
		MovReg(R2, R10).
		Sub(R2, 8).
		Mov(R3, 8).
		Call(HelperPerfOutput).
		Mov(R0, 0).
		Exit()
	p := b.MustBuild()
	lv := analyzeOK(t, p).Liveness()
	for i := 0; i < 8; i++ {
		if !lv.LiveOutStackByte(0, StackSize-8+i) {
			t.Fatalf("buffer byte -8+%d must be live after the store (helper reads it)", i)
		}
	}
}

func TestLivenessBranchesJoin(t *testing.T) {
	// R1 is read on one branch only; it must still be live before the
	// conditional (may-liveness).
	p := NewBuilder("live-branch").
		Mov(R6, 5).
		Call(HelperKtime).
		Jeq(R0, 0, "use").
		Mov(R0, 0).
		Exit().
		Label("use").
		MovReg(R0, R6).
		Exit().
		MustBuild()
	lv := analyzeOK(t, p).Liveness()
	if lv.LiveOutRegs(0)&regBit(R6) == 0 {
		t.Fatal("R6 must be live across the branch (used on taken edge)")
	}
}

func TestAnalysisCondEdges(t *testing.T) {
	p := NewBuilder("edges").
		Mov(R0, 5).
		Jeq(R0, 5, "t"). // always taken
		Mov(R0, 1).
		Label("t").
		Exit().
		MustBuild()
	a := analyzeOK(t, p)
	taken, fall := a.CondEdges(1)
	if !taken || fall {
		t.Fatalf("expected taken-only edge, got taken=%v fall=%v", taken, fall)
	}
	if a.Reached(2) {
		t.Fatal("pc 2 must be unreachable")
	}
}

// roundRobinLiveness is the textbook backward may-live fixpoint: sweep
// every pc, recomputing its live-out and live-in sets from its static
// successors' live-in sets, until a sweep changes nothing. It assumes
// nothing about the order of the CFG, so it is the reference for
// Liveness's single reverse pass.
func roundRobinLiveness(a *Analysis) *Liveness {
	insns := a.prog.Insns
	n := len(insns)
	lv := &Liveness{regsOut: make([]uint16, n), stackOut: make([]stackSet, n)}
	inRegs := make([]uint16, n)
	inStack := make([]stackSet, n)
	for changed := true; changed; {
		changed = false
		for pc, in := range insns {
			var outRegs uint16
			var outStack stackSet
			succs, k := cfgSuccs(in, pc)
			for _, s := range succs[:k] {
				outRegs |= inRegs[s]
				outStack.or(&inStack[s])
			}
			e := a.effects(pc)
			r := e.useRegs | (outRegs &^ e.defRegs)
			var st stackSet
			for i := range st {
				st[i] = e.useStack[i] | (outStack[i] &^ e.killStack[i])
			}
			if r != inRegs[pc] || st != inStack[pc] || outRegs != lv.regsOut[pc] || outStack != lv.stackOut[pc] {
				inRegs[pc], inStack[pc] = r, st
				lv.regsOut[pc], lv.stackOut[pc] = outRegs, outStack
				changed = true
			}
		}
	}
	return lv
}

// livenessDiff analyzes p and describes the first pc where Liveness
// disagrees with roundRobinLiveness, or returns "".
func livenessDiff(p *Program) string {
	a, err := Analyze(p, fuzzMaxInsns)
	if err != nil {
		return fmt.Sprintf("analyze: %v", err)
	}
	got, want := a.Liveness(), roundRobinLiveness(a)
	for pc := range p.Insns {
		if got.regsOut[pc] != want.regsOut[pc] || got.stackOut[pc] != want.stackOut[pc] {
			return fmt.Sprintf("live-out at pc %d (%s): regs %#x, fixpoint %#x; stack %x, fixpoint %x",
				pc, p.Insns[pc], got.regsOut[pc], want.regsOut[pc], got.stackOut[pc], want.stackOut[pc])
		}
	}
	return ""
}

// TestLivenessMatchesFixpoint holds the one-pass Liveness to the
// round-robin fixpoint on generated programs and their optimized forms;
// deploy_test.go does the same for every Collector program.
func TestLivenessMatchesFixpoint(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		p := genProgram(seed, int(seed%40)+1)
		if d := livenessDiff(p); d != "" {
			t.Fatalf("seed %d: %s\n%s", seed, d, p.Disassemble())
		}
		opt, _, err := Optimize(p, fuzzMaxInsns)
		if err != nil {
			t.Fatalf("seed %d: optimize: %v", seed, err)
		}
		if d := livenessDiff(opt); d != "" {
			t.Fatalf("seed %d optimized: %s\n%s", seed, d, opt.Disassemble())
		}
	}
}
