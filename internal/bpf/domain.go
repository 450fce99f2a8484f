package bpf

import "math/bits"

// This file implements the scalar abstract domain the verifier interprets
// programs over: a product of an unsigned interval [Lo, Hi] and a
// known-bits "tnum" (tracked number), mirroring the two domains the real
// eBPF verifier carries per register (umin/umax and struct tnum). The
// interval proves range facts ("this offset is < 64"), the tnum proves
// alignment and bit-pattern facts ("bits 0-2 are zero"); reduce()
// exchanges information between them after every transfer so each domain
// sharpens the other.
//
// All transfer functions are sound over-approximations of evalALU: for
// every concrete a in gamma(A) and b in gamma(B),
// evalALU(op, a, b) in gamma(transfer(op, A, B)). domain_test.go checks
// this by brute force over small bit-widths for every ALU opcode.

// Tnum is a tracked number: bits set in Mask are unknown, bits clear in
// Mask carry the value in Val. Invariant: Val&Mask == 0.
type Tnum struct {
	Val  uint64
	Mask uint64
}

func tnConst(v uint64) Tnum { return Tnum{Val: v} }
func tnUnknown() Tnum       { return Tnum{Mask: ^uint64(0)} }

// IsConst reports whether every bit is known.
func (t Tnum) IsConst() bool { return t.Mask == 0 }

// tnJoin is the lattice union: bits that differ or are unknown in either
// operand become unknown.
func tnJoin(a, b Tnum) Tnum {
	mu := a.Mask | b.Mask | (a.Val ^ b.Val)
	return Tnum{Val: a.Val &^ mu, Mask: mu}
}

// tnIntersect returns the meet of two tnums; ok is false when their known
// bits contradict (empty intersection).
func tnIntersect(a, b Tnum) (Tnum, bool) {
	if (a.Val^b.Val)&^a.Mask&^b.Mask != 0 {
		return Tnum{}, false
	}
	mask := a.Mask & b.Mask
	return Tnum{Val: (a.Val | b.Val) &^ mask, Mask: mask}, true
}

// tnAdd/tnSub follow the kernel's carry/borrow propagation construction.
func tnAdd(a, b Tnum) Tnum {
	sm := a.Mask + b.Mask
	sv := a.Val + b.Val
	sigma := sm + sv
	chi := sigma ^ sv
	mu := chi | a.Mask | b.Mask
	return Tnum{Val: sv &^ mu, Mask: mu}
}

func tnSub(a, b Tnum) Tnum {
	dv := a.Val - b.Val
	alpha := dv + a.Mask
	beta := dv - b.Mask
	chi := alpha ^ beta
	mu := chi | a.Mask | b.Mask
	return Tnum{Val: dv &^ mu, Mask: mu}
}

func tnAnd(a, b Tnum) Tnum {
	alpha := a.Val | a.Mask
	beta := b.Val | b.Mask
	v := a.Val & b.Val
	return Tnum{Val: v, Mask: alpha & beta &^ v}
}

func tnOr(a, b Tnum) Tnum {
	v := a.Val | b.Val
	mu := a.Mask | b.Mask
	return Tnum{Val: v, Mask: mu &^ v}
}

func tnXor(a, b Tnum) Tnum {
	v := a.Val ^ b.Val
	mu := a.Mask | b.Mask
	return Tnum{Val: v &^ mu, Mask: mu}
}

// tnMul keeps only the guaranteed-zero low bits: the product has at least
// as many trailing zeros as both factors combined. A full HMA-style
// multiply (as in the kernel) would be sharper but is not needed for the
// alignment facts Collector programs rely on.
func tnMul(a, b Tnum) Tnum {
	if a.IsConst() && b.IsConst() {
		return tnConst(a.Val * b.Val)
	}
	tz := bits.TrailingZeros64(a.Val|a.Mask) + bits.TrailingZeros64(b.Val|b.Mask)
	if tz >= 64 {
		return tnConst(0)
	}
	return Tnum{Val: 0, Mask: ^uint64(0) << tz}
}

func tnLsh(a Tnum, s uint64) Tnum { return Tnum{Val: a.Val << s, Mask: a.Mask << s} }
func tnRsh(a Tnum, s uint64) Tnum { return Tnum{Val: a.Val >> s, Mask: a.Mask >> s} }

// tnArsh duplicates the top bit of both halves: a known sign bit extends
// known bits, an unknown sign bit extends unknown bits. The Val/Mask
// disjointness invariant is preserved because the sign bit is set in at
// most one of the two.
func tnArsh(a Tnum, s uint64) Tnum {
	return Tnum{Val: uint64(int64(a.Val) >> s), Mask: uint64(int64(a.Mask) >> s)}
}

func tnNeg(a Tnum) Tnum { return tnSub(tnConst(0), a) }

// VReg is the product abstract value of one scalar register: an unsigned
// interval and a tnum, kept mutually reduced. The zero value is NOT valid;
// use vrConst or vrTop.
type VReg struct {
	Lo, Hi uint64 // unsigned inclusive bounds, Lo <= Hi
	TN     Tnum
}

func vrTop() VReg           { return VReg{Lo: 0, Hi: ^uint64(0), TN: tnUnknown()} }
func vrConst(v uint64) VReg { return VReg{Lo: v, Hi: v, TN: tnConst(v)} }

// tnFromRange derives known high bits from an interval: every bit above
// the highest bit where lo and hi differ is common to all values between.
func tnFromRange(lo, hi uint64) Tnum {
	x := lo ^ hi
	if x == 0 {
		return tnConst(lo)
	}
	mask := uint64(1)<<bits.Len64(x) - 1
	return Tnum{Val: lo &^ mask, Mask: mask}
}

// IsConst reports whether the value is a single known constant.
func (v VReg) IsConst() bool { return v.Lo == v.Hi }

// Const returns the constant (meaningful only when IsConst).
func (v VReg) Const() uint64 { return v.Lo }

// reduce exchanges facts between the interval and the tnum. Transfers on
// non-empty inputs cannot produce an empty meet, but reduce degrades
// gracefully (keeps the wider component) if it ever would.
func (v VReg) reduce() VReg {
	// Tnum bounds the interval: value <= x <= value|mask.
	if v.TN.Val > v.Lo {
		v.Lo = v.TN.Val
	}
	if hi := v.TN.Val | v.TN.Mask; hi < v.Hi {
		v.Hi = hi
	}
	if v.Lo > v.Hi {
		// Contradiction; callers detect emptiness via refine, never here.
		return vrTop()
	}
	// The interval bounds the tnum's high bits.
	if tn, ok := tnIntersect(v.TN, tnFromRange(v.Lo, v.Hi)); ok {
		v.TN = tn
	}
	if v.TN.Val > v.Lo {
		v.Lo = v.TN.Val
	}
	return v
}

// vrJoin is the lattice union (interval hull, tnum union).
func vrJoin(a, b VReg) VReg {
	lo, hi := a.Lo, a.Hi
	if b.Lo < lo {
		lo = b.Lo
	}
	if b.Hi > hi {
		hi = b.Hi
	}
	return VReg{Lo: lo, Hi: hi, TN: tnJoin(a.TN, b.TN)}.reduce()
}

// vrWiden accelerates convergence at loop heads: any bound that moved
// since the previous visit jumps straight to its extreme. The tnum join
// ascends at most 64 steps on its own, so it is not widened.
func vrWiden(old, inc VReg) VReg {
	j := vrJoin(old, inc)
	if j.Lo < old.Lo {
		j.Lo = 0
	}
	if j.Hi > old.Hi {
		j.Hi = ^uint64(0)
	}
	return j.reduce()
}

// maxOrBound returns the tightest power-of-two-minus-one bound covering
// a|b for all a <= aHi, b <= bHi.
func maxOrBound(aHi, bHi uint64) uint64 {
	n := bits.Len64(aHi | bHi)
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<n - 1
}

// vrTransfer is the abstract counterpart of evalALU: it computes a sound
// VReg for "dst = dst op src". Callers guarantee op is a scalar ALU op.
func vrTransfer(op Op, a, b VReg) VReg {
	// Two singletons: the abstract result is exactly the concrete one.
	// This makes constant folding complete by construction for every op
	// (the per-op cases below stay interval-sound but are not always
	// singleton-exact, e.g. mod).
	if a.IsConst() && b.IsConst() {
		return vrConst(uint64(evalALU(op, int64(a.Lo), int64(b.Lo))))
	}
	switch op {
	case OpMovImm, OpMovReg:
		return b
	case OpNeg:
		out := vrTop()
		out.TN = tnNeg(a.TN)
		if a.IsConst() {
			return vrConst(-a.Lo)
		}
		if a.Lo > 0 {
			out.Lo, out.Hi = -a.Hi, -a.Lo
		}
		return out.reduce()
	case OpAddImm, OpAddReg:
		out := VReg{TN: tnAdd(a.TN, b.TN)}
		if _, carry := bits.Add64(a.Hi, b.Hi, 0); carry == 0 {
			out.Lo, out.Hi = a.Lo+b.Lo, a.Hi+b.Hi
		} else {
			out.Lo, out.Hi = 0, ^uint64(0)
		}
		return out.reduce()
	case OpSubImm, OpSubReg:
		out := VReg{TN: tnSub(a.TN, b.TN)}
		if a.Lo >= b.Hi {
			out.Lo, out.Hi = a.Lo-b.Hi, a.Hi-b.Lo
		} else {
			out.Lo, out.Hi = 0, ^uint64(0)
		}
		return out.reduce()
	case OpMulImm, OpMulReg:
		out := VReg{Lo: 0, Hi: ^uint64(0), TN: tnMul(a.TN, b.TN)}
		if hi, _ := bits.Mul64(a.Hi, b.Hi); hi == 0 {
			out.Lo, out.Hi = a.Lo*b.Lo, a.Hi*b.Hi
		}
		return out.reduce()
	case OpDivImm, OpDivReg:
		// Division by zero yields zero (evalALU), so a zero-capable
		// divisor pulls the lower bound to 0.
		out := VReg{TN: tnUnknown()}
		if b.Lo > 0 {
			out.Lo, out.Hi = a.Lo/b.Hi, a.Hi/b.Lo
		} else {
			out.Lo, out.Hi = 0, a.Hi
		}
		return out.reduce()
	case OpModImm, OpModReg:
		out := VReg{TN: tnUnknown()}
		switch {
		case b.Hi == 0: // constant zero divisor: defined as 0
			return vrConst(0)
		case b.Lo > 0 && a.Hi < b.Lo: // a < b always: identity
			out.Lo, out.Hi = a.Lo, a.Hi
		default:
			out.Lo = 0
			out.Hi = b.Hi - 1
			if a.Hi < out.Hi {
				out.Hi = a.Hi
			}
		}
		return out.reduce()
	case OpAndImm, OpAndReg:
		out := VReg{Lo: 0, TN: tnAnd(a.TN, b.TN)}
		out.Hi = a.Hi
		if b.Hi < out.Hi {
			out.Hi = b.Hi
		}
		return out.reduce()
	case OpOrImm, OpOrReg:
		out := VReg{TN: tnOr(a.TN, b.TN)}
		out.Lo = a.Lo
		if b.Lo > out.Lo {
			out.Lo = b.Lo
		}
		out.Hi = maxOrBound(a.Hi, b.Hi)
		return out.reduce()
	case OpXorImm, OpXorReg:
		return VReg{Lo: 0, Hi: maxOrBound(a.Hi, b.Hi), TN: tnXor(a.TN, b.TN)}.reduce()
	case OpLshImm, OpLshReg:
		if b.IsConst() {
			s := b.Lo & 63
			out := VReg{Lo: 0, Hi: ^uint64(0), TN: tnLsh(a.TN, s)}
			if uint64(bits.LeadingZeros64(a.Hi|1)) >= s {
				out.Lo, out.Hi = a.Lo<<s, a.Hi<<s
			}
			return out.reduce()
		}
		if b.Hi < 64 && uint64(bits.LeadingZeros64(a.Hi|1)) >= b.Hi {
			return VReg{Lo: a.Lo << b.Lo, Hi: a.Hi << b.Hi, TN: tnUnknown()}.reduce()
		}
		return vrTop()
	case OpRshImm, OpRshReg:
		if b.IsConst() {
			s := b.Lo & 63
			return VReg{Lo: a.Lo >> s, Hi: a.Hi >> s, TN: tnRsh(a.TN, s)}.reduce()
		}
		if b.Hi < 64 {
			return VReg{Lo: a.Lo >> b.Hi, Hi: a.Hi >> b.Lo, TN: tnUnknown()}.reduce()
		}
		return vrTop()
	case OpArshImm, OpArshReg:
		const sign = uint64(1) << 63
		if b.IsConst() {
			s := b.Lo & 63
			out := VReg{Lo: 0, Hi: ^uint64(0), TN: tnArsh(a.TN, s)}
			switch {
			case a.Hi < sign: // sign bit known clear: behaves as rsh
				out.Lo, out.Hi = a.Lo>>s, a.Hi>>s
			case a.Lo >= sign: // sign bit known set: order-preserving
				out.Lo = uint64(int64(a.Lo) >> s)
				out.Hi = uint64(int64(a.Hi) >> s)
			}
			return out.reduce()
		}
		if b.Hi < 64 {
			switch {
			case a.Hi < sign:
				return VReg{Lo: a.Lo >> b.Hi, Hi: a.Hi >> b.Lo, TN: tnUnknown()}.reduce()
			case a.Lo >= sign:
				return VReg{
					Lo: uint64(int64(a.Lo) >> (b.Lo & 63)),
					Hi: uint64(int64(a.Hi) >> (b.Hi & 63)),
					TN: tnUnknown(),
				}.reduce()
			}
		}
		return vrTop()
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
	relSET  // a & b != 0
	relNSET // a & b == 0
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
	case OpJgtImm, OpJgtReg:
		return relGT
	case OpJgeImm, OpJgeReg:
		return relGE
	case OpJltImm, OpJltReg:
		return relLT
	case OpJleImm, OpJleReg:
		return relLE
	case OpJsetImm:
		return relSET
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
	case relSET:
		return relNSET
	case relNSET:
		return relSET
	}
	return relNone
}

// vrRefine narrows a and b under the assumption "a rel b". feasible is
// false when the relation cannot hold for any represented pair, proving
// the corresponding branch edge dead.
func vrRefine(rel vrRel, a, b VReg) (ra, rb VReg, feasible bool) {
	switch rel {
	case relEQ:
		lo, hi := a.Lo, a.Hi
		if b.Lo > lo {
			lo = b.Lo
		}
		if b.Hi < hi {
			hi = b.Hi
		}
		if lo > hi {
			return a, b, false
		}
		tn, ok := tnIntersect(a.TN, b.TN)
		if !ok {
			return a, b, false
		}
		m := VReg{Lo: lo, Hi: hi, TN: tn}.reduce()
		return m, m, true
	case relNE:
		if a.IsConst() && b.IsConst() && a.Lo == b.Lo {
			return a, b, false
		}
		if b.IsConst() {
			if a.Lo == b.Lo {
				a.Lo++
			}
			if a.Hi == b.Lo {
				a.Hi--
			}
			if a.Lo > a.Hi {
				return a, b, false
			}
			a = a.reduce()
		}
		if a.IsConst() {
			if b.Lo == a.Lo {
				b.Lo++
			}
			if b.Hi == a.Lo {
				b.Hi--
			}
			if b.Lo > b.Hi {
				return a, b, false
			}
			b = b.reduce()
		}
		return a, b, true
	case relLT:
		if a.Lo >= b.Hi {
			return a, b, false
		}
		if b.Hi-1 < a.Hi {
			a.Hi = b.Hi - 1
		}
		if a.Lo+1 > b.Lo {
			b.Lo = a.Lo + 1
		}
		return a.reduce(), b.reduce(), true
	case relLE:
		if a.Lo > b.Hi {
			return a, b, false
		}
		if b.Hi < a.Hi {
			a.Hi = b.Hi
		}
		if a.Lo > b.Lo {
			b.Lo = a.Lo
		}
		return a.reduce(), b.reduce(), true
	case relGT:
		rb2, ra2, ok := vrRefine(relLT, b, a)
		return ra2, rb2, ok
	case relGE:
		rb2, ra2, ok := vrRefine(relLE, b, a)
		return ra2, rb2, ok
	case relSET:
		// No possibly-set bit in common: infeasible.
		if (a.TN.Val|a.TN.Mask)&(b.TN.Val|b.TN.Mask) == 0 {
			return a, b, false
		}
		if b.IsConst() && bits.OnesCount64(b.Lo) == 1 {
			// Exactly one test bit: it must be set in a.
			if a.TN.Mask&b.Lo != 0 {
				a.TN.Val |= b.Lo
				a.TN.Mask &^= b.Lo
				a = a.reduce()
			}
		}
		return a, b, true
	case relNSET:
		// A bit known set in both makes a&b nonzero: infeasible.
		if a.TN.Val&b.TN.Val != 0 {
			return a, b, false
		}
		if b.IsConst() {
			// Every test bit must be clear in a.
			a.TN.Mask &^= b.Lo
			a.TN.Val &^= b.Lo
			a = a.reduce()
		}
		return a, b, true
	}
	// relNone (or a future unmodeled relation): refine nothing, keep both
	// edges feasible — always sound.
	return a, b, true
}
