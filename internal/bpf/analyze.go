package bpf

import "fmt"

// Analysis is the result of abstract-interpreting a program to a
// fixpoint: the per-instruction abstract in-states, the loop-head set,
// and per-edge feasibility of every conditional branch. It is the shared
// substrate for Verify, the liveness/reaching-definitions passes, the
// optimizer, and Lint.
type Analysis struct {
	prog     *Program
	maxInsns int
	states   []absState // abstract state *before* each instruction
	loopHead []bool     // targets of backward jumps (widening points)
	// Per-pc conditional edge feasibility, computed from the fixpoint
	// in-state. Meaningful only where isCondJump(insn.Op) and Reached.
	condTaken []bool
	condFall  []bool
}

// Prog returns the analyzed program.
func (a *Analysis) Prog() *Program { return a.prog }

// Reached reports whether pc is reachable under the abstract semantics
// (CFG-reachable pcs may still be unreached when every path to them is
// pruned as infeasible).
func (a *Analysis) Reached(pc int) bool { return a.states[pc].valid }

// CondEdges reports feasibility of the taken and fall-through edges of
// the conditional jump at pc. Both are false when pc is unreached.
func (a *Analysis) CondEdges(pc int) (taken, fall bool) {
	return a.condTaken[pc], a.condFall[pc]
}

// Verify statically checks a program. maxInsns of 0 uses DefaultMaxInsns.
func Verify(p *Program, maxInsns int) error {
	_, err := Analyze(p, maxInsns)
	return err
}

// Analyze verifies p and returns the dataflow facts the verifier
// computed along the way. maxInsns of 0 uses DefaultMaxInsns.
func Analyze(p *Program, maxInsns int) (*Analysis, error) {
	if maxInsns <= 0 {
		maxInsns = DefaultMaxInsns
	}
	n := len(p.Insns)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty program", ErrVerification)
	}
	if n > maxInsns {
		return nil, fmt.Errorf("%w: program has %d instructions, limit %d", ErrVerification, n, maxInsns)
	}

	a := &Analysis{
		prog:     p,
		maxInsns: maxInsns,
		loopHead: make([]bool, n),
	}

	// Structural pass: opcode validity, jump targets, loop bounds.
	for pc, in := range p.Insns {
		if in.Op == OpInvalid || opNames[in.Op] == "" {
			return nil, verr(pc, "invalid opcode %d", in.Op)
		}
		if in.Dst >= numRegs || in.Src >= numRegs {
			return nil, verr(pc, "register out of range")
		}
		if isJump(in.Op) {
			tgt := pc + 1 + int(in.Off)
			if tgt < 0 || tgt >= n {
				return nil, verr(pc, "jump target %d out of range", tgt)
			}
			if tgt <= pc {
				if in.LoopBound <= 0 {
					return nil, verr(pc, "backward jump without a compile-time loop bound")
				}
				a.loopHead[tgt] = true
			}
		}
		switch in.Op {
		case OpDivImm, OpModImm:
			if in.Imm == 0 {
				return nil, verr(pc, "division by constant zero")
			}
		case OpLshImm, OpRshImm, OpArshImm:
			if in.Imm < 0 || in.Imm >= 64 {
				return nil, verr(pc, "shift amount %d out of range", in.Imm)
			}
		case OpLoadMapPtr:
			if in.Imm < 0 || in.Imm >= int64(len(p.Maps)) {
				return nil, verr(pc, "map index %d out of range (have %d maps)", in.Imm, len(p.Maps))
			}
		case OpCall:
			if _, ok := HelperByID(in.Imm); !ok {
				return nil, verr(pc, "unknown helper %d", in.Imm)
			}
		}
		// Fall-through off the end of the program.
		if pc == n-1 && in.Op != OpExit && in.Op != OpJa {
			return nil, verr(pc, "control flow falls off the end of the program")
		}
		if isCondJump(in.Op) && pc == n-1 {
			return nil, verr(pc, "conditional jump cannot be the last instruction")
		}
	}

	// Reachability from instruction 0 over the static CFG. Instructions
	// no path can ever reach are rejected outright, as in real eBPF.
	reach := make([]bool, n)
	stack := []int{0}
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reach[pc] {
			continue
		}
		reach[pc] = true
		stack = append(stack, cfgSuccs(p.Insns[pc], pc)...)
	}
	for pc := range reach {
		if !reach[pc] {
			return nil, verr(pc, "unreachable instruction")
		}
	}

	// Abstract interpretation to a fixpoint, widening at loop heads.
	a.states = make([]absState, n)
	a.states[0] = entryState()
	work := []int{0}
	steps := 0
	for len(work) > 0 {
		steps++
		if steps > n*256 {
			return nil, fmt.Errorf("%w: abstract interpretation did not converge", ErrVerification)
		}
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		outs, err := step(p, pc, a.states[pc])
		if err != nil {
			return nil, err
		}
		for _, o := range outs {
			if a.states[o.pc].merge(&o.state, a.loopHead[o.pc]) {
				work = append(work, o.pc)
			}
		}
	}

	// Record conditional-edge feasibility from the final in-states.
	a.condTaken = make([]bool, n)
	a.condFall = make([]bool, n)
	for pc, in := range p.Insns {
		if !isCondJump(in.Op) || !a.states[pc].valid {
			continue
		}
		_, _, feasT, feasF, err := condStates(a.states[pc], in)
		if err != nil {
			// step already accepted this state; condStates cannot fail.
			feasT, feasF = true, true
		}
		a.condTaken[pc] = feasT
		a.condFall[pc] = feasF
	}
	return a, nil
}

// cfgSuccs returns the static control-flow successors of the instruction
// at pc (no feasibility pruning).
func cfgSuccs(in Insn, pc int) []int {
	switch {
	case in.Op == OpExit:
		return nil
	case in.Op == OpJa:
		return []int{pc + 1 + int(in.Off)}
	case isCondJump(in.Op):
		return []int{pc + 1, pc + 1 + int(in.Off)}
	default:
		return []int{pc + 1}
	}
}
