package bpf

// evalALU is the single concrete ALU semantics shared by the VM
// interpreter, the verifier's constant reasoning, and the optimizer's
// constant folder — one definition so they can never diverge on the edge
// cases that have historically split static analyses from runtimes:
// division/modulo by zero yield 0 (BPF semantics), shift amounts are
// masked to the low 6 bits, and arithmetic right shift propagates the
// sign bit. a is the dst operand, b the src/imm operand (ignored by Neg).
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
	case OpMulImm, OpMulReg:
		return a * b
	case OpDivImm, OpDivReg:
		if b == 0 {
			return 0
		}
		return int64(uint64(a) / uint64(b))
	case OpModImm, OpModReg:
		if b == 0 {
			return 0
		}
		return int64(uint64(a) % uint64(b))
	case OpAndImm, OpAndReg:
		return a & b
	case OpOrImm, OpOrReg:
		return a | b
	case OpXorImm, OpXorReg:
		return a ^ b
	case OpLshImm, OpLshReg:
		return int64(uint64(a) << (uint64(b) & 63))
	case OpRshImm, OpRshReg:
		return int64(uint64(a) >> (uint64(b) & 63))
	case OpArshImm, OpArshReg:
		return a >> (uint64(b) & 63)
	case OpNeg:
		return -a
	}
	return 0
}
