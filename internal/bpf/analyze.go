package bpf

import (
	"fmt"
	"slices"
)

// Analysis is the result of abstract-interpreting a program: the
// per-instruction abstract in-states. Verify keeps only its verdict; the
// JIT compiles from the in-states.
type Analysis struct {
	prog   *Program
	states []absState // abstract state *before* each instruction
}

// Reached reports whether pc is reachable under the abstract semantics
// (CFG-reachable pcs may still be unreached when every path to them is
// pruned as infeasible).
func (a *Analysis) Reached(pc int) bool { return a.states[pc].valid }

// Verify statically checks a program. maxInsns of 0 uses DefaultMaxInsns.
func Verify(p *Program, maxInsns int) error {
	_, err := Analyze(p, maxInsns)
	return err
}

// Analyze verifies p and returns the dataflow facts the verifier
// computed along the way. maxInsns of 0 uses DefaultMaxInsns.
func Analyze(p *Program, maxInsns int) (*Analysis, error) {
	a, err := analyze(p, maxInsns)
	return a, withInsn(p, err)
}

// analyze is Analyze before the rejected instruction's text is filled in.
//
// Every jump goes forward, so the CFG is a DAG in pc order: all of a pc's
// predecessors come before it. Each analysis is therefore one pass in pc
// order — reachability inside the structural pass, then abstract
// interpretation, which steps each reached pc once, after every
// predecessor has merged into its in-state. The first error in pc order is
// the one reported.
func analyze(p *Program, maxInsns int) (*Analysis, error) {
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

	// Structural pass: opcode validity, jump targets, and reachability
	// from instruction 0 over the static CFG — a pc's mark is final when
	// the pass reaches it.
	reach := make([]bool, n)
	reach[0] = true
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
				return nil, verr(pc, "backward jump")
			}
		}
		switch in.Op {
		case OpLshImm, OpRshImm:
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
		// Fall-through off the end of the program. (A jump there has
		// already failed the range check above.)
		if pc == n-1 && in.Op != OpExit {
			return nil, verr(pc, "control flow falls off the end of the program")
		}
		if reach[pc] {
			succs, k := cfgSuccs(in, pc)
			for _, s := range succs[:k] {
				reach[s] = true
			}
		}
	}
	// Instructions no path can ever reach are rejected outright, as in
	// real eBPF.
	if pc := slices.Index(reach, false); pc >= 0 {
		return nil, verr(pc, "unreachable instruction")
	}

	// Abstract interpretation. Each step writes its successors into out,
	// which is merged straight into their in-states.
	a := &Analysis{prog: p, states: make([]absState, n)}
	a.states[0] = entryState()
	var out [2]succ
	for pc := range a.states {
		if !a.states[pc].valid {
			continue
		}
		k, err := a.step(pc, &out)
		if err != nil {
			return nil, err
		}
		for i := range out[:k] {
			a.states[out[i].pc].merge(&out[i].state)
		}
	}
	return a, nil
}

// cfgSuccs returns the static control-flow successors of the instruction
// at pc (no feasibility pruning): the first k entries of succs.
func cfgSuccs(in Insn, pc int) (succs [2]int, k int) {
	switch {
	case in.Op == OpExit:
		return succs, 0
	case isJump(in.Op):
		return [2]int{pc + 1, pc + 1 + int(in.Off)}, 2
	default:
		return [2]int{pc + 1}, 1
	}
}
