package bpf

import "math/bits"

// This file implements the scalar abstract domain the verifier interprets
// programs over: one unsigned interval [Lo, Hi] per scalar register, the
// umin/umax half of what the real eBPF verifier tracks. The instruction set
// is what codegen emits — add, sub, mul and div by a register, shifts by a
// constant, and unsigned compares — so nothing asks for known bits.
// Pointers carry one exact offset of their own (verifier.go), so no
// interval bounds a memory access. The interval supplies the constants the
// verifier checks (a perf output's size, a known-zero divisor) and prunes
// the conditional edges it proves infeasible; over the Collectors it prunes
// none, since no Collector branch is one-sided and every pc is reached
// (ROADMAP item 39).
//
// All transfer functions are sound over-approximations of evalALU: for
// every concrete a in gamma(A) and b in gamma(B),
// evalALU(op, a, b) in gamma(transfer(op, A, B)). domain_test.go checks
// this by brute force over small values for every ALU opcode.

// VReg is the abstract value of one scalar register: an unsigned interval.
// The zero value is the constant 0; use vrTop for an unknown scalar.
type VReg struct {
	Lo, Hi uint64 // unsigned inclusive bounds, Lo <= Hi
}

func vrTop() VReg           { return VReg{Lo: 0, Hi: ^uint64(0)} }
func vrConst(v uint64) VReg { return VReg{Lo: v, Hi: v} }

// IsConst reports whether the value is a single known constant.
func (v VReg) IsConst() bool { return v.Lo == v.Hi }

// Const returns the constant (meaningful only when IsConst).
func (v VReg) Const() uint64 { return v.Lo }

// vrJoin is the lattice union: the interval hull.
func vrJoin(a, b VReg) VReg {
	return VReg{Lo: min(a.Lo, b.Lo), Hi: max(a.Hi, b.Hi)}
}

// vrTransfer is the abstract counterpart of evalALU: it computes a sound
// VReg for "dst = dst op src". Callers guarantee op is a scalar ALU op.
func vrTransfer(op Op, a, b VReg) VReg {
	// Two singletons: the abstract result is exactly the concrete one, so
	// constant folding is complete by construction for every op.
	if a.IsConst() && b.IsConst() {
		return vrConst(uint64(evalALU(op, int64(a.Lo), int64(b.Lo))))
	}
	switch op {
	case OpMovImm, OpMovReg:
		return b
	case OpAddImm, OpAddReg:
		if _, carry := bits.Add64(a.Hi, b.Hi, 0); carry == 0 {
			return VReg{Lo: a.Lo + b.Lo, Hi: a.Hi + b.Hi}
		}
	case OpSubImm, OpSubReg:
		if a.Lo >= b.Hi {
			return VReg{Lo: a.Lo - b.Hi, Hi: a.Hi - b.Lo}
		}
	case OpMulReg:
		if hi, _ := bits.Mul64(a.Hi, b.Hi); hi == 0 {
			return VReg{Lo: a.Lo * b.Lo, Hi: a.Hi * b.Hi}
		}
	case OpDivReg:
		// Division by zero yields zero (evalALU), so a zero-capable
		// divisor pulls the lower bound to 0.
		if b.Lo > 0 {
			return VReg{Lo: a.Lo / b.Hi, Hi: a.Hi / b.Lo}
		}
		return VReg{Lo: 0, Hi: a.Hi}
	case OpLshImm:
		if s := b.Lo & 63; b.IsConst() && uint64(bits.LeadingZeros64(a.Hi|1)) >= s {
			return VReg{Lo: a.Lo << s, Hi: a.Hi << s}
		}
	case OpRshImm:
		if s := b.Lo & 63; b.IsConst() {
			return VReg{Lo: a.Lo >> s, Hi: a.Hi >> s}
		}
	}
	return vrTop()
}

// Branch relations in canonical unsigned form.
type vrRel uint8

const (
	relEQ vrRel = iota
	relNE
	relLT // a < b
	relLE
	relGT
	relGE
	// relNone is the "no known relation" sentinel for jump opcodes this
	// file does not model: vrRefine narrows nothing and both edges stay
	// feasible, so an op added without updating relFor degrades to
	// no-refinement instead of silently pruning with wrong semantics.
	relNone
)

// relFor maps a conditional jump opcode to the relation that holds on the
// taken edge; negRel gives the fall-through relation.
func relFor(op Op) vrRel {
	switch op {
	case OpJeqImm, OpJeqReg:
		return relEQ
	case OpJneImm, OpJneReg:
		return relNE
	case OpJgtImm:
		return relGT
	case OpJgeImm:
		return relGE
	case OpJleImm:
		return relLE
	}
	return relNone
}

func negRel(r vrRel) vrRel {
	switch r {
	case relEQ:
		return relNE
	case relNE:
		return relEQ
	case relLT:
		return relGE
	case relLE:
		return relGT
	case relGT:
		return relLE
	case relGE:
		return relLT
	}
	return relNone
}

// vrRefine narrows a and b under the assumption "a rel b". feasible is
// false when the relation cannot hold for any represented pair, proving
// the corresponding branch edge dead.
func vrRefine(rel vrRel, a, b VReg) (ra, rb VReg, feasible bool) {
	switch rel {
	case relEQ:
		m := VReg{Lo: max(a.Lo, b.Lo), Hi: min(a.Hi, b.Hi)}
		if m.Lo > m.Hi {
			return a, b, false
		}
		return m, m, true
	case relNE:
		if a.IsConst() && b.IsConst() && a.Lo == b.Lo {
			return a, b, false
		}
		if b.IsConst() {
			a = trimEnds(a, b.Lo)
		}
		if a.IsConst() {
			b = trimEnds(b, a.Lo)
		}
		return a, b, true
	case relLT:
		if a.Lo >= b.Hi {
			return a, b, false
		}
		a.Hi = min(a.Hi, b.Hi-1)
		b.Lo = max(b.Lo, a.Lo+1)
		return a, b, true
	case relLE:
		if a.Lo > b.Hi {
			return a, b, false
		}
		a.Hi = min(a.Hi, b.Hi)
		b.Lo = max(b.Lo, a.Lo)
		return a, b, true
	case relGT:
		rb2, ra2, ok := vrRefine(relLT, b, a)
		return ra2, rb2, ok
	case relGE:
		rb2, ra2, ok := vrRefine(relLE, b, a)
		return ra2, rb2, ok
	}
	// relNone (or a future unmodeled relation): refine nothing, keep both
	// edges feasible — always sound.
	return a, b, true
}

// trimEnds removes c from v when it is one of v's bounds. v is not the
// singleton {c}: relNE rules that pair out before calling it.
func trimEnds(v VReg, c uint64) VReg {
	if v.Lo == c {
		v.Lo++
	}
	if v.Hi == c {
		v.Hi--
	}
	return v
}
