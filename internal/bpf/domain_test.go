package bpf

import (
	"math"
	"testing"
)

// Brute-force soundness checks for the abstract domain: every transfer
// function, join, reduce, and refine is validated by enumerating the
// concretization of small abstract values (all intervals and tnums over a
// few low bits, plus 64-bit edge cases) and checking gamma-containment
// against the concrete evalALU semantics.

const enumMax = 15 // exhaustive abstract values live in [0, enumMax]

// Contains reports whether concrete value v is represented by t.
func (t Tnum) Contains(v uint64) bool { return v&^t.Mask == t.Val }

// Contains reports whether concrete value x is represented by v.
func (v VReg) Contains(x uint64) bool { return x >= v.Lo && x <= v.Hi && v.TN.Contains(x) }

// vrRange builds the reduced abstract value of the interval [lo, hi]
// (either order).
func vrRange(lo, hi uint64) VReg {
	if lo > hi {
		lo, hi = hi, lo
	}
	return VReg{Lo: lo, Hi: hi, TN: tnFromRange(lo, hi)}.reduce()
}

// enumTnums yields every tnum with Val|Mask <= enumMax (plus unknown).
func enumTnums() []Tnum {
	var out []Tnum
	for mask := uint64(0); mask <= enumMax; mask++ {
		for val := uint64(0); val <= enumMax; val++ {
			if val&mask == 0 {
				out = append(out, Tnum{Val: val, Mask: mask})
			}
		}
	}
	return append(out, tnUnknown())
}

// enumVRegs yields a diverse set of abstract registers: every interval
// over [0, enumMax], every small tnum paired with its natural interval,
// and a handful of 64-bit edge cases around the signed boundary.
func enumVRegs() []VReg {
	var out []VReg
	for lo := uint64(0); lo <= enumMax; lo++ {
		for hi := lo; hi <= enumMax; hi++ {
			out = append(out, vrRange(lo, hi))
		}
	}
	for mask := uint64(0); mask <= enumMax; mask++ {
		for val := uint64(0); val <= enumMax; val++ {
			if val&mask != 0 {
				continue
			}
			tn := Tnum{Val: val, Mask: mask}
			out = append(out, VReg{Lo: tn.Val, Hi: tn.Val | tn.Mask, TN: tn}.reduce())
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
		if v.Contains(x) {
			out = append(out, x)
		}
		if x == v.Hi {
			break
		}
	}
	return out, true
}

func TestTnumContainsBasics(t *testing.T) {
	if !tnConst(5).Contains(5) || tnConst(5).Contains(4) {
		t.Fatal("tnConst containment wrong")
	}
	for v := uint64(0); v < 100; v++ {
		if !tnUnknown().Contains(v) {
			t.Fatalf("tnUnknown must contain %d", v)
		}
	}
	for _, tn := range enumTnums() {
		if tn.Val&tn.Mask != 0 {
			t.Fatalf("tnum invariant violated: %+v", tn)
		}
	}
}

func TestTnumJoinSound(t *testing.T) {
	tns := enumTnums()
	for _, a := range tns {
		for _, b := range tns {
			j := tnJoin(a, b)
			for v := uint64(0); v <= 2*enumMax+1; v++ {
				if (a.Contains(v) || b.Contains(v)) && !j.Contains(v) {
					t.Fatalf("tnJoin(%+v, %+v) lost %d", a, b, v)
				}
			}
		}
	}
}

func TestTnumIntersectExact(t *testing.T) {
	tns := enumTnums()
	for _, a := range tns {
		for _, b := range tns {
			m, ok := tnIntersect(a, b)
			for v := uint64(0); v <= 2*enumMax+1; v++ {
				both := a.Contains(v) && b.Contains(v)
				if both && !ok {
					t.Fatalf("tnIntersect(%+v, %+v) reported empty but contains %d", a, b, v)
				}
				if ok && both != m.Contains(v) {
					t.Fatalf("tnIntersect(%+v, %+v) = %+v: containment of %d is %v, want %v",
						a, b, m, v, m.Contains(v), both)
				}
			}
		}
	}
}

func TestTnumFromRangeSound(t *testing.T) {
	for lo := uint64(0); lo <= 2*enumMax; lo++ {
		for hi := lo; hi <= 2*enumMax; hi++ {
			tn := tnFromRange(lo, hi)
			for v := lo; v <= hi; v++ {
				if !tn.Contains(v) {
					t.Fatalf("tnFromRange(%d, %d) = %+v lost %d", lo, hi, tn, v)
				}
			}
		}
	}
}

func TestVRegReducePreservesMembers(t *testing.T) {
	for _, v := range enumVRegs() {
		g, ok := gamma(v)
		if !ok {
			continue
		}
		r := v.reduce()
		for _, x := range g {
			if !r.Contains(x) {
				t.Fatalf("reduce(%+v) = %+v lost member %d", v, r, x)
			}
		}
	}
}

// TestVRegReduceIsIdempotent: reduce reaches its fixpoint in one call on
// every interval × tnum product with a non-empty concretization. A reduce
// that stopped early would leave a bound its tnum rules out, and an
// in-state would depend on how many times its predecessors were merged.
func TestVRegReduceIsIdempotent(t *testing.T) {
	for lo := uint64(0); lo <= enumMax; lo++ {
		for hi := lo; hi <= enumMax; hi++ {
			for _, tn := range enumTnums() {
				v := VReg{Lo: lo, Hi: hi, TN: tn}
				if g, _ := gamma(v); len(g) == 0 {
					continue
				}
				if r := v.reduce(); r.reduce() != r {
					t.Fatalf("reduce(%+v) = %+v, reduced again %+v", v, r, r.reduce())
				}
			}
		}
	}
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

// transferOps lists one representative opcode per vrTransfer case (the
// imm/reg pairs share their case bodies).
var transferOps = []Op{
	OpMovReg, OpNeg, OpAddImm, OpSubImm, OpMulImm, OpDivImm, OpModImm,
	OpAndImm, OpOrImm, OpXorImm, OpLshImm, OpRshImm, OpArshImm,
}

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
				if out.TN.Val&out.TN.Mask != 0 {
					t.Fatalf("%v: transfer broke tnum invariant %+v", op, out.TN)
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
	case relSET:
		return a&b != 0
	case relNSET:
		return a&b == 0
	}
	return false
}

var allRels = []vrRel{relEQ, relNE, relLT, relLE, relGT, relGE, relSET, relNSET}

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
