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

// LoadedProgram is a verified, compiled program ready to attach and run.
// Its bookkeeping is plain fields: one goroutine drives a simulation (see
// the sim package doc), so tasks on many virtual CPUs hit it one at a time.
type LoadedProgram struct {
	prog *Program

	// compiled is the entry of the native form (compile.go) Load built;
	// Run dispatches through it.
	compiled copFn
	// compileInfo records the compiled form's size.
	compileInfo CompileInfo

	// ec is the compiled form's one execution state. Nothing re-enters a
	// running program — one goroutine drives a simulation and no helper
	// fires a tracepoint — so every run reuses it. Reuse without zeroing
	// the stack is sound only because the verifier rejects any read of a
	// stack byte the program did not itself write this invocation.
	ec execState

	compiledRuns  int64
	runtimeFaults int64

	// Optional side-effect trace, used by the differential tests to
	// compare the JIT with the reference interpreter: every successful
	// call to a non-Pure helper is recorded with its consumed arguments and
	// return value. Pure helper calls have no effect outside the invocation
	// and are omitted.
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

// Load verifies p and JIT-compiles it, as a kernel built with
// CONFIG_BPF_JIT_ALWAYS_ON does, and returns an executable handle.
// maxInsns of 0 uses DefaultMaxInsns. The compiler's check elisions rest
// on the analysis that just proved p; no LoadedProgram keeps that proof,
// and none gets one from anywhere else. A verified program always
// compiles; a compile error is a *VerifyError naming the instruction no
// proof covers (compile.go).
func Load(p *Program, maxInsns int) (*LoadedProgram, error) {
	a, err := Analyze(p, maxInsns)
	if err != nil {
		return nil, err
	}
	lp := &LoadedProgram{prog: p}
	if err := lp.compile(a); err != nil {
		return nil, err
	}
	return lp, nil
}

// Program returns the underlying program.
func (lp *LoadedProgram) Program() *Program { return lp.prog }

// Attach installs the program on a kernel tracepoint. Each hit pays one
// mode switch (charged by the kernel) plus the program's execution cost,
// and runs the program through Hit.
func (lp *LoadedProgram) Attach(tp *kernel.Tracepoint) {
	tp.Attach(func(t *kernel.Task, args []uint64) int64 {
		_, cost := lp.Hit(t, args)
		return cost
	})
}

// Hit runs the program for one marker hit and returns R0 and the run's
// cost. A marker has no error channel back to its caller, so a runtime
// fault is counted in RuntimeFaults instead of vanishing: the run still
// returns its partial cost, but produced no sample, and the loss accounting
// (chaos identities, tsctl stats) must be able to see that.
func (lp *LoadedProgram) Hit(t *kernel.Task, args []uint64) (r0 uint64, costNS int64) {
	r0, costNS, err := lp.Run(t, args)
	if err != nil {
		lp.runtimeFaults++
	}
	return r0, costNS
}

// RuntimeFaults returns the number of marker hits whose run ended in a
// runtime fault (and therefore produced no sample).
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

	// Run accounting: instructions retired, helper nanoseconds, and the
	// fault that stopped the run.
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
// runtime fault. The compiled blocks produce what the reference
// interpreter (the package's tests) does — R0, cost, helper trace and map
// end-states — which the differential oracles enforce. There is no
// per-access error plumbing; a verifier/compiler disagreement surfaces as
// a Go panic, converted here to ErrRuntime.
func (lp *LoadedProgram) Run(task *kernel.Task, args []uint64) (r0 uint64, costNS int64, err error) {
	lp.compiledRuns++
	insnNS := task.Kernel().Profile.BPFInsnNS
	// Registers start from zero, as the interpreter's do (and trace capture
	// may read helper-argument registers); the stack is deliberately left
	// dirty — the verifier rejects any read of a stack byte the program did
	// not write this invocation, so stale contents are unobservable.
	ec := &lp.ec
	ec.regs = [regSlots]uint64{}
	ec.regs[R10] = mkPtr(0, StackSize)
	ec.objects = ec.objects[:0]
	ec.task, ec.args = task, args
	ec.executed, ec.helperNS, ec.err = 0, 0, nil
	defer func() {
		if rec := recover(); rec != nil {
			r0 = 0
			costNS = cost(ec.executed, ec.helperNS, insnNS)
			err = fmt.Errorf("%w: compiled execution panic: %v", ErrRuntime, rec)
		}
	}()
	for f := lp.compiled; f != nil; {
		f = f(ec)
	}
	costNS = cost(ec.executed, ec.helperNS, insnNS)
	if ec.err != nil {
		return 0, costNS, ec.err
	}
	return ec.regs[R0], costNS, nil
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
