package bpf

import (
	"fmt"
	"slices"
	"strings"

	"tscout/internal/kernel"
)

// PatternNames lists the pattern super-op kinds in declaration order, from
// the first one up to (not including) muHelperCall.
var PatternNames = [muHelperCall - muStoreZeroRun]string{
	"muStoreZeroRun", "muLoadObjStore", "muGetArgStore", "muReadCounterLoad",
	"muReadCounterStore", "muScaleStore", "muDeltaObjStore",
	"muAddImmObjStore", "muProbeScaleStore", "muCallFrame",
	"muIOACStore", "muSockStore",
	"muLoadObjStoreRun", "muDeltaObjRun", "muArgLadder",
}

// PatternCounts decodes lp the way Compile does and adds to counts, per
// pattern super-op kind, how many each peephole pass produced in lp's
// blocks — a super-op counts in the pass that makes it, because a later
// pass may go on to absorb it into a larger one. It returns Compile's
// error if lp does not compile.
func PatternCounts(lp *LoadedProgram, counts *[len(PatternNames)]int) error {
	cc, err := lp.decode()
	if err != nil {
		return err
	}
	for pc := 0; pc < len(cc.fns); {
		run := cc.run(pc)
		if len(run) == 0 {
			pc++
			continue
		}
		ops := run
		for _, match := range passes {
			ops = cc.rewrite(ops, match)
			for _, op := range ops {
				if op.kind >= muStoreZeroRun && op.kind < muHelperCall {
					counts[op.kind-muStoreZeroRun]++
				}
			}
		}
		pc += len(run)
	}
	return nil
}

// FramedCalls decodes lp the way Compile does and returns its number of
// impure helper call sites and how many of them peephole folded into a
// muCallFrame. A call that binds no callFrame runs through genericCall, and
// one matchFrame does not fold stays a muHelperCall: either counts only in
// calls.
func FramedCalls(lp *LoadedProgram) (calls, framed int, err error) {
	cc, err := lp.decode()
	if err != nil {
		return 0, 0, err
	}
	for _, in := range cc.p.Insns {
		if in.Op != OpCall {
			continue
		}
		if spec, _ := HelperByID(in.Imm); !spec.Pure {
			calls++
		}
	}
	for pc := 0; pc < len(cc.fns); {
		run := cc.run(pc)
		if len(run) == 0 {
			pc++
			continue
		}
		for _, op := range cc.peephole(run) {
			if op.kind == muCallFrame {
				framed++
			}
		}
		pc += len(run)
	}
	return calls, framed, nil
}

// peepholeStarts is peephole for the run that starts at head, also
// returning the pc of each output op's first instruction.
func (cc *compiler) peepholeStarts(run []microOp, head int) ([]microOp, []int) {
	ops, starts := run, make([]int, len(run))
	for i := range starts {
		starts[i] = head + i
	}
	for _, match := range passes {
		var out []microOp
		var outStarts []int
		for i := 0; i < len(ops); {
			op, n := match(cc, ops[i:])
			if n == 0 {
				op, n = ops[i], 1
			}
			out, outStarts = append(out, op), append(outStarts, starts[i])
			i += n
		}
		ops, starts = out, outStarts
	}
	return ops, starts
}

// DispatchedOps runs lp once the way Compile would build it, except that
// every micro-op after peephole is a block of its own, and returns how
// many micro-ops the run dispatched beside its R0 and virtual cost (which
// a block charges by pc, so splitting changes neither). lp must not have
// been compiled: Compile releases the analysis decode needs.
func DispatchedOps(lp *LoadedProgram, task *kernel.Task, args []uint64) (ops int, r0 uint64, costNS int64, err error) {
	cc, err := lp.decode()
	if err != nil {
		return 0, 0, 0, err
	}
	for pc := 0; pc < len(cc.fns); {
		run := cc.run(pc)
		if len(run) == 0 {
			pc++
			continue
		}
		fused, starts := cc.peepholeStarts(run, pc)
		for j, op := range fused {
			next := pc + len(run)
			if j+1 < len(fused) {
				next = starts[j+1]
			}
			b := &block{ops: []microOp{op}, fns: cc.fns, head: starts[j], next: next}
			cc.fns[starts[j]] = func(ec *execState) copFn {
				ops++
				return b.run(ec)
			}
		}
		pc += len(run)
	}
	ec := &execState{task: task, args: args}
	ec.regs[R10] = mkPtr(0, StackSize)
	for f := cc.fns[0]; f != nil; {
		f = f(ec)
	}
	costNS = cost(ec.executed, ec.helperNS, task.Kernel().Profile.BPFInsnNS)
	if ec.err != nil {
		return ops, 0, costNS, ec.err
	}
	return ops, ec.regs[R0], costNS, nil
}

// PtrALU returns lp's per-pc pointer-ALU facts.
func PtrALU(lp *LoadedProgram) []bool { return lp.ptrALU }

// ProofDiff names the first part of the analysis got keeps that differs
// from want's, or returns "": the program it proves, the in-states (their
// number included) and the conditional edges.
func ProofDiff(got, want *LoadedProgram) string {
	g, w := got.analysis, want.analysis
	switch {
	case g.prog != got.prog:
		return "the proof is of another program"
	case !slices.Equal(g.states, w.states):
		return fmt.Sprintf("in-states differ (%d kept, want %d)", len(g.states), len(w.states))
	case !slices.Equal(g.condTaken, w.condTaken) || !slices.Equal(g.condFall, w.condFall):
		return "conditional edges differ"
	}
	return ""
}

// MicroOps renders what Compile would build from lp, pc by pc: every fused
// block's micro-ops after both peephole passes with their resolved
// operands (a closure shows only as present), and "term" for each
// terminator. Two programs with the same rendering compile to the same
// code. It returns Compile's error instead if lp does not compile.
func MicroOps(lp *LoadedProgram) (string, error) {
	cc, err := lp.decode()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for pc := 0; pc < len(cc.fns); {
		run := cc.run(pc)
		if len(run) == 0 {
			fmt.Fprintf(&b, "%d: term\n", pc)
			pc++
			continue
		}
		for _, op := range cc.peephole(run) {
			fmt.Fprintf(&b, "%d: %d %d %d %d %d %d %#x %v\n",
				pc, op.kind, op.dst, op.src, op.x, op.idx, op.idx2, op.imm, op.fn != nil)
		}
		pc += len(run)
	}
	return b.String(), nil
}

// LivenessAgrees analyzes p and describes the first pc where Liveness
// disagrees with a round-robin fixpoint (liveness_test.go), or returns "".
func LivenessAgrees(p *Program) string { return livenessDiff(p) }

// AnalysesAgree runs Analyze and its oracle (verifier_oracle_test.go) on p
// and describes their first disagreement, or returns "".
func AnalysesAgree(p *Program) string { return diffAnalyses(p, 0) }

// SetRoundHook makes f rewrite the program every changing optimizer round
// builds, until the returned function removes it.
func SetRoundHook(f func(round int, p *Program) *Program) (restore func()) {
	testRoundHook = f
	return func() { testRoundHook = nil }
}

// DropFirstNullCheck returns p without the first null check of a map
// lookup result whose error path has another way in — what a broken
// optimizer pass might emit. The program still has no unreachable
// instruction, so its rejection is the missing check.
func DropFirstNullCheck(p *Program) *Program {
	preds := make([]int, len(p.Insns))
	for pc, in := range p.Insns {
		succs, k := cfgSuccs(in, pc)
		for _, s := range succs[:k] {
			preds[s]++
		}
	}
	drop := make([]bool, len(p.Insns))
	for pc := 1; pc < len(p.Insns); pc++ {
		call, in := p.Insns[pc-1], p.Insns[pc]
		if call.Op == OpCall && call.Imm == HelperMapLookup &&
			in.Op == OpJeqImm && in.Dst == R0 && in.Imm == 0 && preds[pc+1+int(in.Off)] > 1 {
			drop[pc] = true
			break
		}
	}
	return rebuild(p, p.Insns, drop)
}

// RunInterpreted executes the program through the interpreter even when a
// compiled form exists — the reference semantics the differential oracles
// compare the compiled path against.
func (lp *LoadedProgram) RunInterpreted(task *kernel.Task, args []uint64) (uint64, int64, error) {
	lp.interpRuns++
	return lp.runInterp(task, args)
}

// SetCallTrace enables or disables recording of impure helper calls.
func (lp *LoadedProgram) SetCallTrace(on bool) { lp.traceOn = on }

// CallTrace returns a copy of the recorded impure helper calls.
func (lp *LoadedProgram) CallTrace() []HelperCall {
	out := make([]HelperCall, len(lp.trace))
	for i, c := range lp.trace {
		out[i] = HelperCall{ID: c.ID, Args: append([]uint64(nil), c.Args...), Ret: c.Ret}
	}
	return out
}

// Runs returns the number of times the program has been invoked.
func (lp *LoadedProgram) Runs() int64 { return lp.interpRuns + lp.compiledRuns }
