package bpf

import (
	"fmt"

	"tscout/internal/kernel"
)

// This file is the instruction set's specification: an interpreter that
// runs a loaded program one instruction at a time, checking every memory
// access and helper argument at run time (mem, call). Nothing in the build
// runs it — Load compiles every program, Run dispatches only through the
// compiled blocks, and every helper call there is a callFrame bound at
// compile time — so it lives with the tests that hold the JIT to it:
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
			if spec, _ := HelperByID(in.Imm); !spec.Pure {
				if w := ec.task.Emit(kernel.EvHelperCall); w != nil {
					noteCall(w, ec, in.Imm)
				}
			}
			pc++
		default:
			return 0, cost(executed, helperNS, profile.BPFInsnNS), fmt.Errorf("%w: bad opcode at %d", ErrRuntime, pc)
		}
	}
}

func isPtr(v uint64) bool       { return v&ptrTag != 0 && v&mapTagBit == 0 }
func isMapHandle(v uint64) bool { return v&mapTag == mapTag }

// mem decodes ptr+off and returns the size bytes it addresses, or
// ErrRuntime when ptr is not a pointer or the access leaves its object.
func (ec *execState) mem(ptr uint64, off int32, size int) ([]byte, error) {
	if !isPtr(ptr) {
		return nil, fmt.Errorf("%w: dereference of non-pointer %#x", ErrRuntime, ptr)
	}
	obj := ptrObj(ptr)
	addr := int64(ptrAddr(ptr)) + int64(off)
	var buf []byte
	if obj == 0 {
		buf = ec.stack[:]
	} else {
		i := int(obj) - 1
		if i >= len(ec.objects) {
			return nil, fmt.Errorf("%w: dangling object %d", ErrRuntime, obj)
		}
		buf = ec.objects[i]
	}
	if addr < 0 || addr+int64(size) > int64(len(buf)) {
		return nil, fmt.Errorf("%w: access at %d size %d outside object of %d bytes", ErrRuntime, addr, size, len(buf))
	}
	return buf[addr : addr+int64(size)], nil
}

// call runs helper id against ec's registers and returns its cost: the
// helpers' semantics, dispatched by id and checked at run time, that a
// callFrame (compile.go) reproduces with the checks the verifier proved.
func (lp *LoadedProgram) call(ec *execState, id int64) (int64, error) {
	spec, _ := HelperByID(id)
	fault := func(format string, args ...any) (int64, error) {
		return spec.CostNS, fmt.Errorf("%w: %s: "+format, append([]any{ErrRuntime, spec.Name}, args...)...)
	}
	// A map helper's R1 is a map handle; the pointers after it address
	// its key, value or sample.
	var m Map
	if len(spec.Args) > 0 && spec.Args[0] == ArgConstMap {
		v := ec.regs[R1]
		if !isMapHandle(v) || v&^mapTag >= uint64(len(lp.prog.Maps)) {
			return fault("r1 %#x is not a map handle", v)
		}
		m = lp.prog.Maps[v&^mapTag]
	}

	switch id {
	case HelperMapLookup, HelperMapUpdate, HelperMapDelete:
		key, err := ec.mem(ec.regs[R2], 0, m.KeySize())
		if err != nil {
			return spec.CostNS, err
		}
		h, hash := m.(*HashMap)
		ec.regs[R0] = 0
		switch {
		case id == HelperMapLookup:
			keyed, ok := m.(interface{ Lookup(key []byte) []byte })
			if !ok {
				return fault("%q is keyless", m.Name())
			}
			if v := keyed.Lookup(key); v != nil {
				ec.regs[R0] = ec.registerObject(v)
			}
		case !hash:
			return fault("%q is not a hash map", m.Name())
		case id == HelperMapDelete:
			if h.Delete(key) {
				ec.regs[R0] = 1
			}
		default:
			val, err := ec.mem(ec.regs[R3], 0, h.ValueSize())
			if err != nil {
				return spec.CostNS, err
			}
			if h.update(U64(key), val) != nil {
				ec.regs[R0] = ^uint64(0) // -1
			}
		}
	case HelperPerfOutput:
		rb, ok := m.(*PerCPURing)
		if !ok {
			return fault("%q is not a perf ring", m.Name())
		}
		size := int(ec.regs[R3])
		data, err := ec.mem(ec.regs[R2], 0, size)
		if err != nil {
			return spec.CostNS, err
		}
		// Route by the submitting task's current CPU, as perf does.
		rb.SubmitFrom(ec.task.CPU(), data)
		if w := ec.task.Emit(kernel.EvSubmit); w != nil {
			noteSample(w, data)
		}
		ec.regs[R0] = 0
		// Copy cost scales with sample size.
		return spec.CostNS + int64(size/16), nil
	case HelperReadCounter:
		// The counter selector is a runtime value the verifier cannot
		// bound; an invalid id reads as 0 like the other field helpers
		// (found by FuzzVerifyThenRun: Read would index out of range).
		c := kernel.Counter(ec.regs[R1])
		if !c.Valid() {
			ec.regs[R0] = 0
			break
		}
		r := ec.task.Perf().Read(c)
		switch ec.regs[R2] {
		case CounterPartRaw:
			// Via int64 so a wrapped (negative-going) counter converts
			// with modular semantics on every platform; float-to-uint64
			// of a negative value is otherwise implementation-defined.
			ec.regs[R0] = uint64(int64(r.Raw))
		case CounterPartEnabled:
			ec.regs[R0] = uint64(r.TimeEnabled * perfScale)
		case CounterPartRunning:
			ec.regs[R0] = uint64(r.TimeRunning * perfScale)
		default:
			ec.regs[R0] = 0
		}
	case HelperReadIOAC:
		switch ec.regs[R1] {
		case IOACReadBytes:
			ec.regs[R0] = uint64(ec.task.IOAC.ReadBytes)
		case IOACWriteBytes:
			ec.regs[R0] = uint64(ec.task.IOAC.WriteBytes)
		case IOACReadOps:
			ec.regs[R0] = uint64(ec.task.IOAC.ReadOps)
		case IOACWriteOps:
			ec.regs[R0] = uint64(ec.task.IOAC.WriteOps)
		default:
			ec.regs[R0] = 0
		}
	case HelperReadSock:
		switch ec.regs[R1] {
		case SockBytesReceived:
			ec.regs[R0] = uint64(ec.task.Sock.BytesReceived)
		case SockBytesSent:
			ec.regs[R0] = uint64(ec.task.Sock.BytesSent)
		case SockSegsIn:
			ec.regs[R0] = uint64(ec.task.Sock.SegsIn)
		case SockSegsOut:
			ec.regs[R0] = uint64(ec.task.Sock.SegsOut)
		default:
			ec.regs[R0] = 0
		}
	case HelperGetPID:
		ec.regs[R0] = uint64(ec.task.PID)
	case HelperGetTaskGen:
		ec.regs[R0] = ec.task.Gen()
	case HelperGetCPU:
		ec.regs[R0] = uint64(ec.task.CPU())
	case HelperKtime:
		ec.regs[R0] = uint64(ec.task.Now())
	case HelperGetArg:
		i := int(ec.regs[R1])
		if i >= 0 && i < len(ec.args) {
			ec.regs[R0] = ec.args[i]
		} else {
			ec.regs[R0] = 0
		}
	default:
		return 0, fmt.Errorf("%w: unknown helper %d", ErrRuntime, id)
	}
	return spec.CostNS, nil
}
