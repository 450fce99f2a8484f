package bpf

import (
	"fmt"

	"tscout/internal/kernel"
)

// This file is the instruction set's specification: an interpreter that
// runs a loaded program one instruction at a time, checking every memory
// access and helper argument at run time. Nothing in the build runs it —
// Load compiles every program, and Run dispatches only through the
// compiled blocks — so it lives with the tests that hold the JIT to it:
// FuzzVerify, FuzzVerifyThenRun, the fusion and branch tests,
// TestMarkerCycleDispatchedOps and the Collector differential, all through
// export_test.go's RunInterpreted.

// runInterp executes lp's program for task. It returns what Run does — R0,
// the virtual-time cost (cost() of the executed-instruction count plus
// helper costs) and any runtime fault — from a fresh execution state, and
// records impure helper calls in lp's trace the same way.
func (ip *Interpreter) runInterp(task *kernel.Task, args []uint64) (uint64, int64, error) {
	lp, p := ip.lp, ip.lp.prog
	profile := &task.Kernel().Profile
	ec := &execState{task: task, args: args}
	ec.regs[R10] = mkPtr(0, StackSize)

	executed := 0
	var helperNS int64
	pc := 0
	for {
		executed++
		in := p.Insns[pc]
		switch {
		case in.Op == OpExit:
			return ec.regs[R0], cost(executed, helperNS, profile.BPFInsnNS), nil

		case in.Op == OpMovImm:
			ec.regs[in.Dst] = uint64(in.Imm)
			pc++
		case in.Op == OpMovReg:
			ec.regs[in.Dst] = ec.regs[in.Src]
			pc++
		case isALU(in.Op):
			var src uint64
			if isRegSrc(in.Op) {
				src = ec.regs[in.Src]
			} else {
				src = uint64(in.Imm)
			}
			dst := ec.regs[in.Dst]
			if ip.ptrALU[pc] {
				// Pointer arithmetic (verified to be add/sub const).
				delta := int64(src)
				if in.Op == OpSubImm || in.Op == OpSubReg {
					delta = -delta
				}
				ec.regs[in.Dst] = mkPtr(ptrObj(dst), uint32(int64(ptrAddr(dst))+delta))
			} else {
				ec.regs[in.Dst] = uint64(evalALU(in.Op, int64(dst), int64(src)))
			}
			pc++

		case in.Op == OpLoadMapPtr:
			ec.regs[in.Dst] = mapTag | uint64(in.Imm)
			pc++

		case in.Op == OpLoad:
			b, err := ec.mem(ec.regs[in.Src], in.Off, 8)
			if err != nil {
				return 0, cost(executed, helperNS, profile.BPFInsnNS), err
			}
			ec.regs[in.Dst] = U64(b)
			pc++
		case in.Op == OpStore, in.Op == OpStoreImm:
			b, err := ec.mem(ec.regs[in.Dst], in.Off, 8)
			if err != nil {
				return 0, cost(executed, helperNS, profile.BPFInsnNS), err
			}
			if in.Op == OpStore {
				PutU64(b, ec.regs[in.Src])
			} else {
				PutU64(b, uint64(in.Imm))
			}
			pc++

		case isJump(in.Op):
			var b uint64
			if isRegSrc(in.Op) {
				b = ec.regs[in.Src]
			} else {
				b = uint64(in.Imm)
			}
			if condTrue(in.Op, ec.regs[in.Dst], b) {
				pc += 1 + int(in.Off)
			} else {
				pc++
			}

		case in.Op == OpCall:
			ns, err := lp.call(ec, in.Imm)
			helperNS += ns
			if err != nil {
				return 0, cost(executed, helperNS, profile.BPFInsnNS), err
			}
			if lp.traceOn {
				lp.recordCall(ec, in.Imm)
			}
			pc++
		default:
			return 0, cost(executed, helperNS, profile.BPFInsnNS), fmt.Errorf("%w: bad opcode at %d", ErrRuntime, pc)
		}
	}
}
