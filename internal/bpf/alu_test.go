package bpf

import (
	"math"
	"testing"
)

// Cross-check that the three consumers of ALU semantics — the VM
// interpreter, the shared evalALU helper, and the verifier's abstract
// constant folder — agree on every opcode over a table of edge operands.
// evalALU is the single source of truth; this test makes a divergence in
// any consumer fail loudly.

var aluEdgeOperands = []int64{
	0, 1, 2, 3, 7, 8, 63, 64, 65, 255, 4096,
	-1, -2, -63, -64, -4096,
	math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
}

// aluRegOps maps each reg-source ALU opcode to whether the verifier
// rejects a known-zero src (division).
var aluRegOps = []struct {
	op         Op
	rejectZero bool
}{
	{OpMovReg, false},
	{OpAddReg, false},
	{OpSubReg, false},
	{OpMulReg, false},
	{OpDivReg, true},
}

func TestALUSemanticsCrossCheck(t *testing.T) {
	task := testTask()
	for _, tc := range aluRegOps {
		for _, a := range aluEdgeOperands {
			for _, b := range aluEdgeOperands {
				want := evalALU(tc.op, a, b)

				// Verifier constant fold: transfer on two singletons must
				// produce exactly the concrete result.
				out := vrTransfer(tc.op, vrConst(uint64(a)), vrConst(uint64(b)))
				if !out.Contains(uint64(want)) {
					t.Fatalf("%v(%d, %d): abstract transfer %+v does not contain evalALU result %d",
						tc.op, a, b, out, want)
				}

				if tc.rejectZero && b == 0 {
					// The verifier rejects division by a known-zero
					// register, so the VM path is unreachable for this
					// input; evalALU still defines it as 0.
					if want != 0 {
						t.Fatalf("%v(%d, 0) = %d, want 0", tc.op, a, want)
					}
					continue
				}
				if !out.IsConst() || int64(out.Const()) != want {
					t.Fatalf("%v(%d, %d): fold gave %+v, want const %d", tc.op, a, b, out, want)
				}
				p := &Program{Name: "alu-x", Insns: []Insn{
					{Op: OpMovImm, Dst: R1, Imm: a},
					{Op: OpMovImm, Dst: R2, Imm: b},
					{Op: tc.op, Dst: R1, Src: R2},
					{Op: OpMovReg, Dst: R0, Src: R1},
					{Op: OpExit},
				}}
				lp, err := Load(p, 0)
				if err != nil {
					t.Fatalf("%v(%d, %d): load: %v", tc.op, a, b, err)
				}
				got, _, rerr := lp.Run(task, nil)
				if rerr != nil {
					t.Fatalf("%v(%d, %d): run: %v", tc.op, a, b, rerr)
				}
				if int64(got) != want {
					t.Fatalf("%v(%d, %d): VM returned %d, evalALU returned %d", tc.op, a, b, got, want)
				}
			}
		}
	}
}

// Immediate forms share evalALU with the register forms but pass through
// the verifier's structural imm checks; exercise the structurally-legal
// subset end to end.
func TestALUImmFormsCrossCheck(t *testing.T) {
	task := testTask()
	immOps := []struct {
		op    Op
		legal func(imm int64) bool
	}{
		{OpAddImm, func(int64) bool { return true }},
		{OpSubImm, func(int64) bool { return true }},
		{OpLshImm, func(imm int64) bool { return imm >= 0 && imm < 64 }},
		{OpRshImm, func(imm int64) bool { return imm >= 0 && imm < 64 }},
	}
	for _, tc := range immOps {
		for _, a := range aluEdgeOperands {
			for _, imm := range aluEdgeOperands {
				if !tc.legal(imm) {
					continue
				}
				want := evalALU(tc.op, a, imm)
				p := &Program{Name: "alu-imm-x", Insns: []Insn{
					{Op: OpMovImm, Dst: R0, Imm: a},
					{Op: tc.op, Dst: R0, Imm: imm},
					{Op: OpExit},
				}}
				lp, err := Load(p, 0)
				if err != nil {
					t.Fatalf("%v(%d, imm %d): load: %v", tc.op, a, imm, err)
				}
				got, _, rerr := lp.Run(task, nil)
				if rerr != nil {
					t.Fatalf("%v(%d, imm %d): run: %v", tc.op, a, imm, rerr)
				}
				if int64(got) != want {
					t.Fatalf("%v(%d, imm %d): VM returned %d, evalALU returned %d", tc.op, a, imm, got, want)
				}
			}
		}
	}
}
