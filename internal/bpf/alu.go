package bpf

// evalALU is the single concrete ALU semantics shared by the VM
// interpreter, the verifier's constant reasoning, and Lint's
// const-foldable rule, so they cannot diverge on the edge cases that split
// static analyses from runtimes: arithmetic wraps, division is unsigned
// and division by zero yields 0 (BPF semantics), and shift amounts are
// masked to the low 6 bits. a is the dst operand, b the src/imm operand.
// The JIT's block.run (compile.go) is the one other implementation of
// these operations; the interpreter-vs-compiled differential oracles hold
// it to this one.
func evalALU(op Op, a, b int64) int64 {
	switch op {
	case OpMovImm, OpMovReg:
		return b
	case OpAddImm, OpAddReg:
		return a + b
	case OpSubImm, OpSubReg:
		return a - b
	case OpMulReg:
		return a * b
	case OpDivReg:
		if b == 0 {
			return 0
		}
		return int64(uint64(a) / uint64(b))
	case OpLshImm:
		return int64(uint64(a) << (uint64(b) & 63))
	case OpRshImm:
		return int64(uint64(a) >> (uint64(b) & 63))
	}
	return 0
}
