// Package bpf implements the BPF-style virtual machine that hosts TScout's
// generated Collector programs. It mirrors the pieces of Linux eBPF the
// paper depends on (§2.3, §5.1): a register machine with a restricted
// instruction set, a static verifier that builds a control-flow graph and
// rejects unsafe programs before they load, kernel maps (hash, array,
// per-task, perf ring), helper functions for reading kernel state, and a
// bounded perf ring buffer for shipping samples to user space.
//
// Programs are built with Builder, verified and loaded with Load, and
// attached to kernel tracepoints; execution cost is charged in virtual time
// (instructions x HardwareProfile.BPFInsnNS plus helper costs).
package bpf

import "fmt"

// Reg is a VM register. R0 holds return values, R1-R5 are caller-saved
// helper arguments, R6-R9 are callee-saved, and R10 is the read-only frame
// pointer to the top of the 512-byte stack.
type Reg uint8

// VM registers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10

	numRegs = 11
	// regSlots pads the runtime register file to the next power of two so a
	// masked byte index provably stays in bounds (see execState.regs).
	regSlots = 16
)

// StackSize is the per-invocation stack available below R10.
const StackSize = 512

// DefaultMaxInsns is the verifier's default program-length limit. The real
// kernel allows 1M instructions; TScout Collectors are hundreds of
// instructions (paper §5.1), so a much smaller default catches runaway
// codegen early.
const DefaultMaxInsns = 65536

// Op is an instruction opcode.
type Op uint8

// Opcodes: exactly the instructions TScout's codegen emits
// (TestISAIsWhatCodegenEmits). An opcode number is the wire ABI of the
// checked-in fuzz corpora, so a retired opcode leaves its number behind as
// a blank gap the verifier rejects as invalid; never renumber one.
const (
	OpInvalid Op = iota

	// ALU: dst = dst <op> (src|imm)
	OpMovImm
	OpMovReg
	OpAddImm
	OpAddReg
	OpSubImm
	OpSubReg
	_ // 7
	OpMulReg
	_        // 9
	OpDivReg // unsigned; divide-by-zero yields 0 like BPF
	_        // 11
	_        // 12
	_        // 13
	_        // 14
	_        // 15
	_        // 16
	_        // 17
	_        // 18
	OpLshImm
	_ // 20
	OpRshImm
	_ // 22
	_ // 23

	// Memory: 8-byte loads and stores.
	OpLoad     // dst = *(u64 *)(src + off)
	OpStore    // *(u64 *)(dst + off) = src
	OpStoreImm // *(u64 *)(dst + off) = imm

	// LoadMapPtr materializes a handle to the program's map table entry
	// imm in dst (the LD_IMM64 map-fd pseudo-instruction in real BPF).
	OpLoadMapPtr

	// Jumps: relative to the next instruction, in instructions. Every
	// comparison is unsigned.
	OpJa
	OpJeqImm
	OpJeqReg
	OpJneImm
	OpJneReg
	OpJgtImm
	_ // 34
	OpJgeImm
	_ // 36
	_ // 37
	_ // 38
	OpJleImm
	_ // 40
	_ // 41

	// Call invokes helper imm.
	OpCall
	// Exit returns R0 to the kernel.
	OpExit
	// 44 and 45 are gaps too.
)

var opNames = map[Op]string{
	OpMovImm: "mov", OpMovReg: "movr", OpAddImm: "add", OpAddReg: "addr",
	OpSubImm: "sub", OpSubReg: "subr", OpMulReg: "mulr", OpDivReg: "divr",
	OpLshImm: "lsh", OpRshImm: "rsh",
	OpLoad: "ldx", OpStore: "stx", OpStoreImm: "st", OpLoadMapPtr: "ldmap",
	OpJa: "ja", OpJeqImm: "jeq", OpJeqReg: "jeqr", OpJneImm: "jne",
	OpJneReg: "jner", OpJgtImm: "jgt", OpJgeImm: "jge", OpJleImm: "jle",
	OpCall: "call", OpExit: "exit",
}

// Insn is one VM instruction.
type Insn struct {
	Op  Op
	Dst Reg
	Src Reg
	Off int32 // memory offset or jump displacement
	Imm int64
}

func (i Insn) String() string {
	name := opNames[i.Op]
	if name == "" {
		name = fmt.Sprintf("op%d", i.Op)
	}
	switch i.Op {
	case OpExit:
		return name
	case OpCall:
		return fmt.Sprintf("%s %d", name, i.Imm)
	case OpJa:
		return fmt.Sprintf("%s %+d", name, i.Off)
	case OpLoad:
		return fmt.Sprintf("%s r%d, [r%d%+d]", name, i.Dst, i.Src, i.Off)
	case OpStore:
		return fmt.Sprintf("%s [r%d%+d], r%d", name, i.Dst, i.Off, i.Src)
	case OpStoreImm:
		return fmt.Sprintf("%s [r%d%+d], %d", name, i.Dst, i.Off, i.Imm)
	case OpLoadMapPtr:
		return fmt.Sprintf("%s r%d, map[%d]", name, i.Dst, i.Imm)
	default:
		if isJump(i.Op) {
			if isRegSrc(i.Op) {
				return fmt.Sprintf("%s r%d, r%d, %+d", name, i.Dst, i.Src, i.Off)
			}
			return fmt.Sprintf("%s r%d, %d, %+d", name, i.Dst, i.Imm, i.Off)
		}
		if isRegSrc(i.Op) {
			return fmt.Sprintf("%s r%d, r%d", name, i.Dst, i.Src)
		}
		return fmt.Sprintf("%s r%d, %d", name, i.Dst, i.Imm)
	}
}

func isJump(op Op) bool {
	switch op {
	case OpJa, OpJeqImm, OpJeqReg, OpJneImm, OpJneReg, OpJgtImm, OpJgeImm, OpJleImm:
		return true
	}
	return false
}

func isCondJump(op Op) bool { return isJump(op) && op != OpJa }

func isRegSrc(op Op) bool {
	switch op {
	case OpMovReg, OpAddReg, OpSubReg, OpMulReg, OpDivReg, OpJeqReg, OpJneReg,
		OpStore, OpLoad:
		return true
	}
	return false
}

func isALU(op Op) bool {
	switch op {
	case OpMovImm, OpMovReg, OpAddImm, OpAddReg, OpSubImm, OpSubReg,
		OpMulReg, OpDivReg, OpLshImm, OpRshImm:
		return true
	}
	return false
}

// Program is an unverified program: instructions plus the map table the
// instructions reference by index.
type Program struct {
	Name  string
	Insns []Insn
	Maps  []Map
}

// Disassemble renders the program as text, one instruction per line.
func (p *Program) Disassemble() string {
	out := ""
	for i, in := range p.Insns {
		out += fmt.Sprintf("%4d: %s\n", i, in.String())
	}
	return out
}
