package bpf

import (
	"errors"
	"fmt"

	"tscout/internal/kernel"
)

// Runtime errors. After successful verification these indicate a verifier
// bug, not a program bug; the kernel kills the program either way.
var (
	ErrRuntime      = errors.New("bpf: runtime fault")
	ErrNotPerfArray = errors.New("bpf: perf_event_output on non-perf map")
)

// Pointer encoding inside 64-bit registers: bit 63 tags memory pointers
// (object id in bits 62..32, byte address in bits 31..0); bit 62 together
// with bit 63 tags map handles (map index in low bits). The verifier
// guarantees programs never forge or leak these values.
const (
	ptrTag    = uint64(1) << 63
	mapTagBit = uint64(1) << 62
	mapTag    = ptrTag | mapTagBit
)

func mkPtr(obj uint32, addr uint32) uint64 {
	return ptrTag | uint64(obj&0x3fffffff)<<32 | uint64(addr)
}

func isPtr(v uint64) bool { return v&ptrTag != 0 && v&mapTagBit == 0 }
func isMapHandle(v uint64) bool {
	return v&mapTag == mapTag
}
func ptrObj(v uint64) uint32  { return uint32(v>>32) & 0x3fffffff }
func ptrAddr(v uint64) uint32 { return uint32(v) }

// LoadedProgram is a verified program ready to attach and run. Its
// bookkeeping is plain fields: one goroutine drives a simulation (see the
// sim package doc), so tasks on many virtual CPUs hit it one at a time.
type LoadedProgram struct {
	prog *Program

	// ptrALU[pc] is true when the verifier proved the ALU instruction at
	// pc operates on a pointer destination. The interpreter dispatches on
	// this static fact rather than on the value's runtime tag bits: a
	// scalar whose bits happen to fall in the pointer-tagged range must
	// still take the evalALU path, or scalar semantics would silently
	// change at 1<<63. The verifier guarantees the kind of a register at
	// a given pc is the same on every feasible path (kind mismatches join
	// to uninit, which any use rejects), so the flag is well-defined.
	ptrALU []bool

	// analysis is the abstract-interpretation result Load verified the
	// program with, retained so Compile can license its check elisions
	// from the same proofs (DESIGN.md §9). Compile's decode is its only
	// reader, and Compile sets it to nil whatever the outcome — the proof
	// is megabytes per deployment and nothing reads it again. Otherwise
	// nil only for hand-constructed programs that bypassed Load, which
	// Compile refuses.
	analysis *Analysis

	// compiled is the entry of the native form (compile.go) once Compile
	// has run; Run dispatches through it when non-nil and interprets
	// otherwise.
	compiled copFn
	// compileInfo records the compiled form's size (zero value until
	// Compile succeeds). Written at load time, before the program can be
	// attached, so a plain field is safe.
	compileInfo CompileInfo

	// ec is the compiled form's one execution state. Nothing re-enters a
	// running program — one goroutine drives a simulation and no helper
	// fires a tracepoint — so every run reuses it. Reuse without zeroing
	// the stack is sound only because the verifier rejects any read of a
	// stack byte the program did not itself write this invocation.
	ec execState

	interpRuns    int64
	compiledRuns  int64
	runtimeFaults int64

	// Optional side-effect trace, used by the differential fuzzers to
	// compare original and optimized programs: every successful call to a
	// non-Pure helper is recorded with its consumed arguments and return
	// value. Pure helper calls are omitted deliberately — the optimizer is
	// allowed to delete them when their result is dead.
	traceOn bool
	trace   []HelperCall
}

// HelperCall is one recorded side-effecting helper invocation.
type HelperCall struct {
	ID   int64    //tsvet:ignore unread-field the differential fuzzers compare the reference trace
	Args []uint64 //tsvet:ignore unread-field the differential fuzzers compare the reference trace
	Ret  uint64   //tsvet:ignore unread-field the differential fuzzers compare the reference trace
}

func (lp *LoadedProgram) recordCall(ec *execState, id int64) {
	spec, ok := HelperByID(id)
	if !ok || spec.Pure {
		return
	}
	args := append([]uint64(nil), ec.regs[R1:R1+Reg(len(spec.Args))]...)
	lp.trace = append(lp.trace, HelperCall{ID: id, Args: args, Ret: ec.regs[R0]})
}

// Load verifies p and returns an executable handle. maxInsns of 0 uses
// DefaultMaxInsns. This is the moment the real kernel would also JIT the
// bytecode; the simulator interprets instead and charges per-instruction
// virtual time.
func Load(p *Program, maxInsns int) (*LoadedProgram, error) {
	a, err := Analyze(p, maxInsns)
	if err != nil {
		return nil, err
	}
	return loaded(a), nil
}

// LoadOptimized is Load(Optimize(p, maxInsns)) with one analysis fewer:
// the analysis that proved the optimizer's final program is the proof the
// LoadedProgram keeps. It returns the same instructions, stats and errors.
func LoadOptimized(p *Program, maxInsns int) (*LoadedProgram, OptStats, error) {
	a, stats, err := optimize(p, maxInsns)
	if err != nil {
		return nil, stats, err
	}
	return loaded(a), stats, nil
}

// loaded wraps a.prog with the analysis Analyze proved it with — the only
// way a LoadedProgram gets an analysis, so Compile's elisions always rest
// on a proof of the instructions it compiles.
func loaded(a *Analysis) *LoadedProgram {
	p := a.prog
	ptrALU := make([]bool, len(p.Insns))
	for pc, in := range p.Insns {
		if !isALU(in.Op) || in.Op == OpMovImm || in.Op == OpMovReg || !a.Reached(pc) {
			continue
		}
		k := a.states[pc].regs[in.Dst].kind
		ptrALU[pc] = k == rkPtrStack || k == rkPtrMapValue
	}
	return &LoadedProgram{prog: p, ptrALU: ptrALU, analysis: a}
}

// Program returns the underlying program.
func (lp *LoadedProgram) Program() *Program { return lp.prog }

// Attach installs the program on a kernel tracepoint. Each hit pays one
// mode switch (charged by the kernel) plus the program's execution cost.
// A tracepoint handler has no error channel back to the kernel, so a
// runtime fault is counted in RuntimeFaults instead of vanishing: the hit
// still charges its partial cost, but produced no sample, and the loss
// accounting (chaos identities, tsctl stats) must be able to see that.
func (lp *LoadedProgram) Attach(tp *kernel.Tracepoint) {
	tp.Attach(func(t *kernel.Task, args []uint64) int64 {
		_, cost, err := lp.Run(t, args)
		if err != nil {
			lp.runtimeFaults++
		}
		return cost
	})
}

// RuntimeFaults returns the number of attached-tracepoint hits whose run
// ended in a runtime fault (and therefore produced no sample).
func (lp *LoadedProgram) RuntimeFaults() int64 { return lp.runtimeFaults }

type execState struct {
	// regs is padded to a power of two (only R0–R10 are architectural) so
	// the compiled engine's superblock runner can index it with a masked
	// byte and no bounds check.
	regs    [regSlots]uint64
	stack   [StackSize]byte
	objects [][]byte // object 0 is unused; map-value objects registered at runtime
	task    *kernel.Task
	args    []uint64

	// Compiled-path accounting; the interpreter keeps these in locals.
	executed int
	helperNS int64
	err      error
}

func (ec *execState) registerObject(b []byte) uint64 {
	ec.objects = append(ec.objects, b)
	return mkPtr(uint32(len(ec.objects)-1)+1, 0)
}

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

// Run executes the program for task with the given tracepoint arguments.
// It returns R0, the virtual-time cost of the execution (instruction count
// times the profile's per-instruction cost, plus helper costs), and any
// runtime fault. Once Compile has run, execution runs the compiled
// blocks; until then it runs on the interpreter. Both paths produce bit-identical
// results — R0, cost, helper trace and map end-states — which
// the differential fuzz oracles enforce.
func (lp *LoadedProgram) Run(task *kernel.Task, args []uint64) (uint64, int64, error) {
	if lp.compiled != nil {
		return lp.runCompiled(task, args)
	}
	lp.interpRuns++
	return lp.runInterp(task, args)
}

func (lp *LoadedProgram) runInterp(task *kernel.Task, args []uint64) (uint64, int64, error) {
	p := lp.prog
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
			if lp.ptrALU[pc] {
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

		case in.Op == OpJa:
			pc += 1 + int(in.Off)
		case isCondJump(in.Op):
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

// cost converts an executed-instruction count into virtual nanoseconds,
// rounding half-up: profiles charge fractional nanoseconds per instruction
// (0.24–0.25ns), and truncation would systematically under-charge the
// kernel noise stream by up to 1ns on every single marker hit.
func cost(insns int, helperNS int64, insnNS float64) int64 {
	return int64(float64(insns)*insnNS+0.5) + helperNS
}

func condTrue(op Op, a, b uint64) bool {
	switch op {
	case OpJeqImm, OpJeqReg:
		return a == b
	case OpJneImm, OpJneReg:
		return a != b
	case OpJgtImm:
		return a > b
	case OpJgeImm:
		return a >= b
	case OpJleImm:
		return a <= b
	}
	return false
}

// perfScale is the fixed-point scale used for counter enabled/running
// times so generated code can normalize with integer math.
const perfScale = 1024

func (lp *LoadedProgram) call(ec *execState, id int64) (int64, error) {
	spec, _ := HelperByID(id)
	maps := lp.prog.Maps
	getMap := func(r Reg) (Map, error) {
		v := ec.regs[r]
		if !isMapHandle(v) {
			return nil, fmt.Errorf("%w: %s: r%d is not a map handle", ErrRuntime, spec.Name, r)
		}
		idx := int(v &^ mapTag)
		if idx >= len(maps) {
			return nil, fmt.Errorf("%w: %s: map index %d out of range", ErrRuntime, spec.Name, idx)
		}
		return maps[idx], nil
	}
	stackBytes := func(r Reg, size int) ([]byte, error) {
		if size == 0 {
			return nil, nil
		}
		return ec.mem(ec.regs[r], 0, size)
	}

	switch id {
	case HelperMapLookup:
		m, err := getMap(R1)
		if err != nil {
			return spec.CostNS, err
		}
		key, err := stackBytes(R2, m.KeySize())
		if err != nil {
			return spec.CostNS, err
		}
		v := m.Lookup(key)
		if v == nil {
			ec.regs[R0] = 0
		} else {
			ec.regs[R0] = ec.registerObject(v)
		}
	case HelperMapUpdate:
		m, err := getMap(R1)
		if err != nil {
			return spec.CostNS, err
		}
		key, err := stackBytes(R2, m.KeySize())
		if err != nil {
			return spec.CostNS, err
		}
		val, err := stackBytes(R3, m.ValueSize())
		if err != nil {
			return spec.CostNS, err
		}
		if uerr := m.Update(key, val); uerr != nil {
			ec.regs[R0] = ^uint64(0) // -1
		} else {
			ec.regs[R0] = 0
		}
	case HelperMapDelete:
		m, err := getMap(R1)
		if err != nil {
			return spec.CostNS, err
		}
		key, err := stackBytes(R2, m.KeySize())
		if err != nil {
			return spec.CostNS, err
		}
		if m.Delete(key) {
			ec.regs[R0] = 1
		} else {
			ec.regs[R0] = 0
		}
	case HelperPerfOutput:
		m, err := getMap(R1)
		if err != nil {
			return spec.CostNS, err
		}
		rb, ok := m.(*PerCPURing)
		if !ok {
			return spec.CostNS, ErrNotPerfArray
		}
		size := int(ec.regs[R3])
		data, err := stackBytes(R2, size)
		if err != nil {
			return spec.CostNS, err
		}
		// Route by the submitting task's current CPU, as perf does.
		rb.SubmitFrom(ec.task.CPU(), data)
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
