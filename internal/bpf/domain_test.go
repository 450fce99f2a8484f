package bpf

import (
	"math"
	"testing"
)

// Brute-force soundness checks for the abstract domain: every transfer
// function, join and refine is validated by enumerating the concretization
// of small abstract values (all intervals over a few low bits, plus 64-bit
// edge cases) and checking gamma-containment against the concrete evalALU
// semantics.

const enumMax = 15 // exhaustive abstract values live in [0, enumMax]

// Contains reports whether concrete value x is represented by v.
func (v VReg) Contains(x uint64) bool { return x >= v.Lo && x <= v.Hi }

// vrRange builds the interval [lo, hi] (either order).
func vrRange(lo, hi uint64) VReg {
	if lo > hi {
		lo, hi = hi, lo
	}
	return VReg{Lo: lo, Hi: hi}
}

// enumVRegs yields every interval over [0, enumMax] and a handful of
// 64-bit edge cases around the signed boundary.
func enumVRegs() []VReg {
	var out []VReg
	for lo := uint64(0); lo <= enumMax; lo++ {
		for hi := lo; hi <= enumMax; hi++ {
			out = append(out, vrRange(lo, hi))
		}
	}
	out = append(out,
		vrTop(),
		vrConst(^uint64(0)),
		vrConst(1<<63),
		vrConst(math.MaxInt64),
		vrRange(1<<63-2, 1<<63+2),
		vrRange(^uint64(3), ^uint64(0)),
	)
	return out
}

// gamma enumerates the concrete values of v, or returns ok=false when the
// concretization is too large to enumerate (64-bit edge cases).
func gamma(v VReg) ([]uint64, bool) {
	if v.Hi-v.Lo > 64 {
		return nil, false
	}
	var out []uint64
	for x := v.Lo; ; x++ {
		out = append(out, x)
		if x == v.Hi {
			break
		}
	}
	return out, true
}

func TestVRegJoinSound(t *testing.T) {
	vrs := enumVRegs()
	for _, a := range vrs {
		ga, okA := gamma(a)
		if !okA {
			continue
		}
		for _, b := range vrs {
			gb, okB := gamma(b)
			if !okB {
				continue
			}
			j := vrJoin(a, b)
			for _, x := range append(append([]uint64(nil), ga...), gb...) {
				if !j.Contains(x) {
					t.Fatalf("vrJoin(%+v, %+v) lost %d", a, b, x)
				}
			}
		}
	}
}

// transferOps lists one opcode per vrTransfer case (the imm/reg pairs
// share their case bodies).
var transferOps = []Op{OpMovReg, OpAddImm, OpSubImm, OpMulReg, OpDivReg, OpLshImm, OpRshImm}

func TestVRegTransferSound(t *testing.T) {
	vrs := enumVRegs()
	type pair struct {
		v VReg
		g []uint64
	}
	var pairs []pair
	for _, v := range vrs {
		if g, ok := gamma(v); ok {
			pairs = append(pairs, pair{v, g})
		}
	}
	for _, op := range transferOps {
		for _, pa := range pairs {
			for _, pb := range pairs {
				out := vrTransfer(op, pa.v, pb.v)
				if out.Lo > out.Hi {
					t.Fatalf("%v: transfer produced empty interval %+v", op, out)
				}
				for _, a := range pa.g {
					for _, b := range pb.g {
						c := uint64(evalALU(op, int64(a), int64(b)))
						if !out.Contains(c) {
							t.Fatalf("%v: transfer(%+v, %+v) = %+v does not contain evalALU(%d, %d) = %d",
								op, pa.v, pb.v, out, a, b, c)
						}
					}
				}
			}
		}
	}
}

// Transfers on unenumerable 64-bit edge values: spot-check specific
// concrete members rather than the full concretization.
func TestVRegTransferEdgeCases(t *testing.T) {
	edge := []uint64{0, 1, 63, 64, math.MaxInt64, 1 << 63, ^uint64(0), ^uint64(1)}
	big := []VReg{vrTop(), vrRange(1<<63-2, 1<<63+2), vrRange(^uint64(3), ^uint64(0))}
	for _, op := range transferOps {
		for _, a := range big {
			for _, bv := range edge {
				out := vrTransfer(op, a, vrConst(bv))
				for _, av := range edge {
					if !a.Contains(av) {
						continue
					}
					c := uint64(evalALU(op, int64(av), int64(bv)))
					if !out.Contains(c) {
						t.Fatalf("%v: transfer(%+v, const %d) = %+v does not contain evalALU(%d, %d) = %d",
							op, a, bv, out, av, bv, c)
					}
				}
			}
		}
	}
}

func relHolds(rel vrRel, a, b uint64) bool {
	switch rel {
	case relEQ:
		return a == b
	case relNE:
		return a != b
	case relLT:
		return a < b
	case relLE:
		return a <= b
	case relGT:
		return a > b
	case relGE:
		return a >= b
	}
	return false
}

var allRels = []vrRel{relEQ, relNE, relLT, relLE, relGT, relGE}

func TestVRegRefineSound(t *testing.T) {
	vrs := enumVRegs()
	type pair struct {
		v VReg
		g []uint64
	}
	var pairs []pair
	for _, v := range vrs {
		if g, ok := gamma(v); ok {
			pairs = append(pairs, pair{v, g})
		}
	}
	for _, rel := range allRels {
		for _, pa := range pairs {
			for _, pb := range pairs {
				ra, rb, feasible := vrRefine(rel, pa.v, pb.v)
				anyPair := false
				for _, a := range pa.g {
					for _, b := range pb.g {
						if !relHolds(rel, a, b) {
							continue
						}
						anyPair = true
						if !ra.Contains(a) {
							t.Fatalf("rel %d: refine(%+v, %+v) = %+v lost left witness %d (with %d)",
								rel, pa.v, pb.v, ra, a, b)
						}
						if !rb.Contains(b) {
							t.Fatalf("rel %d: refine(%+v, %+v) = %+v lost right witness %d (with %d)",
								rel, pa.v, pb.v, rb, b, a)
						}
					}
				}
				if anyPair && !feasible {
					t.Fatalf("rel %d: refine(%+v, %+v) claimed infeasible but witnesses exist",
						rel, pa.v, pb.v)
				}
			}
		}
	}
}

func TestNegRelMatchesComplement(t *testing.T) {
	for _, rel := range allRels {
		neg := negRel(rel)
		for a := uint64(0); a <= enumMax; a++ {
			for b := uint64(0); b <= enumMax; b++ {
				if relHolds(rel, a, b) == relHolds(neg, a, b) {
					t.Fatalf("negRel(%d) = %d is not the complement at (%d, %d)", rel, neg, a, b)
				}
			}
		}
	}
}

func TestRelNoneDegradesSoundly(t *testing.T) {
	// An unmodeled jump opcode must disable refinement entirely rather
	// than borrow another relation's semantics and prune feasible edges.
	if rel := relFor(OpExit); rel != relNone {
		t.Fatalf("relFor on a non-jump op = %d, want relNone", rel)
	}
	if neg := negRel(relNone); neg != relNone {
		t.Fatalf("negRel(relNone) = %d, want relNone", neg)
	}
	a, b := vrRange(3, 9), vrConst(5)
	ra, rb, feasible := vrRefine(relNone, a, b)
	if !feasible || ra != a || rb != b {
		t.Fatalf("vrRefine(relNone) must refine nothing and stay feasible, got %+v %+v %v", ra, rb, feasible)
	}
}

func TestVRegConstAccessors(t *testing.T) {
	c := vrConst(42)
	if !c.IsConst() || c.Const() != 42 {
		t.Fatalf("vrConst(42) = %+v", c)
	}
	r := vrRange(1, 5)
	if r.IsConst() {
		t.Fatalf("vrRange(1,5) reported const: %+v", r)
	}
	if vrRange(7, 3).Lo != 3 {
		t.Fatal("vrRange must normalize swapped bounds")
	}
}
