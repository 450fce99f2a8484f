package bpf

import (
	"errors"
	"fmt"
)

// The optimizer shrinks a verified program without changing any behavior
// observable outside the invocation: R0 at exit, impure helper calls (in
// order, with arguments), and map/ring contents. It runs rounds of
//
//   1. constant folding      ALU whose abstract result is a single value
//                            becomes MovImm
//   2. branch simplification never-taken branches drop, always-taken
//                            branches become Ja, jumps-to-next drop
//   3. dead code elimination pure register defs, exact stack stores, and
//                            pure helper calls whose results are dead
//   4. unreachable removal   pcs the abstract interpreter proved
//                            unreachable (via pruned edges)
//
// over a fresh Analysis each round until nothing changes. The round that
// changes nothing has just analyzed the final program, so that analysis is
// its proof: it is not re-run, and LoadOptimized hands it to the
// LoadedProgram instead of analyzing the same instructions a third time.
// Only a program still changing at the round cap is analyzed once more.
// FuzzOptimize differentially checks the equivalence claim against the VM
// on generator-produced programs.

// OptStats is the instruction count Optimize started from and ended at.
type OptStats struct {
	BeforeInsns int
	AfterInsns  int
}

// Saved returns the net instruction-count reduction.
func (s OptStats) Saved() int { return s.BeforeInsns - s.AfterInsns }

// Optimize returns a behavior-equivalent, no-larger program. The input
// must verify (maxInsns of 0 uses DefaultMaxInsns), and so does the
// output: it is the program the last analysis proved, so a bug in a pass
// surfaces as an error here rather than as an unverified program loading.
func Optimize(p *Program, maxInsns int) (*Program, OptStats, error) {
	a, stats, err := optimize(p, maxInsns)
	if err != nil {
		return nil, stats, err
	}
	return a.prog, stats, nil
}

// testRoundHook, when a test sets it (export_test.go), rewrites the
// program each changing round builds before the next round analyzes it:
// the way to make a pass emit a program that does not verify.
var testRoundHook func(round int, p *Program) *Program

// optimize runs Optimize's rounds and returns the analysis of the program
// they converged on: Analyze's proof of exactly the instructions returned.
func optimize(p *Program, maxInsns int) (*Analysis, OptStats, error) {
	stats := OptStats{BeforeInsns: len(p.Insns)}
	cur := p
	// A round's analysis is dead once the round has built the next
	// program, and programs only shrink: each round reuses the previous
	// round's in-state array.
	var states []absState
	const maxRounds = 8
	for round := 0; round < maxRounds; round++ {
		a, err := analyze(cur, maxInsns, states)
		if err != nil {
			if round == 0 {
				return nil, stats, fmt.Errorf("bpf: optimize: input program: %w", withInsn(cur, err))
			}
			return nil, stats, builtProgramError(fmt.Sprintf("round %d produced an unverifiable program", round), cur, err)
		}
		next, changed := optimizeRound(a)
		if !changed {
			stats.AfterInsns = len(cur.Insns)
			return a, stats, nil
		}
		cur, states = next, a.states
		if testRoundHook != nil {
			cur = testRoundHook(round, cur)
		}
	}
	// The round cap cut the rounds short: nothing has analyzed cur yet.
	a, err := analyze(cur, maxInsns, states)
	if err != nil {
		return nil, stats, builtProgramError("result failed re-verification", cur, err)
	}
	stats.AfterInsns = len(cur.Insns)
	return a, stats, nil
}

// builtProgramError reports that p, a program the optimizer built, failed
// verification. Its VerifyError's PC indexes p, not the caller's input, so
// the error names p's instruction and does not unwrap to the
// *VerifyError: a caller that indexed its own program with that PC would
// find an unrelated instruction. It still matches ErrVerification.
func builtProgramError(what string, p *Program, err error) error {
	var ve *VerifyError
	if errors.As(withInsn(p, err), &ve) {
		return fmt.Errorf("bpf: optimize: %s: %w: %s", what, ErrVerification, ve.at())
	}
	return fmt.Errorf("bpf: optimize: %s: %w", what, err)
}

// optimizeRound applies one round of all passes to the analyzed program,
// returning the rebuilt program and whether anything changed.
func optimizeRound(a *Analysis) (*Program, bool) {
	p := a.prog
	n := len(p.Insns)
	insns := append([]Insn(nil), p.Insns...)
	drop := make([]bool, n)
	changed := false

	// Pass 1+2: constant folding and branch simplification need only the
	// analysis in-states.
	for pc := 0; pc < n; pc++ {
		in := insns[pc]
		if !a.states[pc].valid {
			drop[pc] = true
			changed = true
			continue
		}
		switch {
		case isALU(in.Op) && in.Op != OpMovImm:
			if c, ok := a.foldableConst(pc, in); ok {
				insns[pc] = Insn{Op: OpMovImm, Dst: in.Dst, Imm: c}
				changed = true
			}
		case in.Op == OpJa && in.Off == 0:
			drop[pc] = true
			changed = true
		case isCondJump(in.Op):
			taken, fall := a.CondEdges(pc)
			switch {
			case in.Off == 0, !taken && fall:
				// Both edges land on the next instruction, or only the
				// fall-through is reachable.
				drop[pc] = true
				changed = true
			case taken && !fall:
				insns[pc] = Insn{Op: OpJa, Off: in.Off}
				changed = true
			}
		}
	}

	// Pass 3: liveness-driven dead code elimination. Skip it when the
	// program already changed this round — the next round's fresh
	// analysis sees the simplified CFG and produces sharper liveness.
	if !changed {
		lv := a.Liveness()
		for pc := 0; pc < n; pc++ {
			in := insns[pc]
			switch {
			case in.Op == OpMovImm, in.Op == OpMovReg, in.Op == OpLoadMapPtr,
				in.Op == OpLoad, isALU(in.Op):
				// A pure def is dead when its destination is not live
				// after. Loads are pure (verified in-bounds, cannot
				// fault), but a load also *uses* stack bytes — dropping
				// it only removes uses, which is safe.
				if lv.LiveOutRegs(pc)&regBit(in.Dst) == 0 {
					drop[pc] = true
					changed = true
				}
			case in.Op == OpStore, in.Op == OpStoreImm:
				// A stack store is dead when no byte it writes is live
				// after. Only exact stores qualify; stores through
				// map-value pointers escape and are never dead.
				st := &a.states[pc]
				base := st.regs[in.Dst]
				if base.kind != rkPtrStack || base.lo != base.hi {
					continue
				}
				lo := base.lo + int64(in.Off)
				dead := true
				for i := int64(0); i < 8; i++ {
					if lv.LiveOutStackByte(pc, int(lo+i+StackSize)) {
						dead = false
						break
					}
				}
				if dead {
					drop[pc] = true
					changed = true
				}
			case in.Op == OpCall:
				spec, _ := HelperByID(in.Imm)
				if !spec.Pure {
					continue
				}
				// The helper only writes R0; R1-R5 keep their values in
				// the VM, and the verifier treats them as clobbered, so
				// dropping the call can only make later code *more*
				// defined. Dead R0 makes the call removable.
				if lv.LiveOutRegs(pc)&regBit(R0) == 0 {
					drop[pc] = true
					changed = true
				}
			}
		}
	}

	if !changed {
		return p, false
	}
	return rebuild(p, insns, drop), true
}

// foldableConst reports whether the scalar ALU instruction at pc always
// produces the same value, using the analysis in-state.
func (a *Analysis) foldableConst(pc int, in Insn) (int64, bool) {
	st := &a.states[pc]
	dst := st.regs[in.Dst]
	var src regState
	if isRegSrc(in.Op) {
		src = st.regs[in.Src]
	} else {
		src = constReg(in.Imm)
	}
	if in.Op == OpMovReg {
		if src.kind == rkScalar && src.vr.IsConst() {
			return int64(src.vr.Const()), true
		}
		return 0, false
	}
	if dst.kind != rkScalar || src.kind != rkScalar {
		return 0, false
	}
	out := vrTransfer(in.Op, dst.vr, src.vr)
	if out.IsConst() {
		return int64(out.Const()), true
	}
	return 0, false
}

// rebuild drops the marked instructions and remaps jump displacements.
// newIdx[pc] counts the kept instructions before pc, which is exactly the
// new index of the first kept instruction at or after pc — so jump
// targets into dropped (always unreachable or no-op) regions slide
// forward to the next kept instruction.
func rebuild(p *Program, insns []Insn, drop []bool) *Program {
	n := len(insns)
	newIdx := make([]int, n+1)
	k := 0
	for pc := 0; pc < n; pc++ {
		newIdx[pc] = k
		if !drop[pc] {
			k++
		}
	}
	newIdx[n] = k

	out := make([]Insn, 0, k)
	for pc := 0; pc < n; pc++ {
		if drop[pc] {
			continue
		}
		in := insns[pc]
		if isJump(in.Op) {
			tgt := pc + 1 + int(in.Off)
			in.Off = int32(newIdx[tgt] - (newIdx[pc] + 1))
		}
		out = append(out, in)
	}
	return &Program{Name: p.Name, Insns: out, Maps: p.Maps}
}
