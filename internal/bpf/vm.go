package bpf

import (
	"errors"
	"fmt"

	"tscout/internal/kernel"
)

// ErrRuntime is a runtime fault. After successful verification it
// indicates a verifier or compiler bug, not a program bug; the kernel kills
// the program either way.
var ErrRuntime = errors.New("bpf: runtime fault")

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
}

// noteCall fills an EvHelperCall event for the impure helper id that just
// ran on ec; the differential oracles compare two engines' streams.
func noteCall(w *[6]uint64, ec *execState, id int64) {
	spec, _ := HelperByID(id)
	w[0] = uint64(id)
	copy(w[1:4], ec.regs[R1:R1+Reg(len(spec.Args))])
	w[4] = ec.regs[R0]
}

// noteSample fills an EvSubmit event with the sample's leading words.
func noteSample(w *[6]uint64, sample []byte) {
	for i := 0; i < len(w) && 8*i+8 <= len(sample); i++ {
		w[i] = U64(sample[8*i:])
	}
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

	// Run accounting: instructions retired and helper nanoseconds.
	executed int
	helperNS int64
}

func (ec *execState) registerObject(b []byte) uint64 {
	ec.objects = append(ec.objects, b)
	return mkPtr(uint32(len(ec.objects)-1)+1, 0)
}

// Run executes the program for task with the given tracepoint arguments.
// It returns R0, the virtual-time cost of the execution (instruction count
// times the profile's per-instruction cost, plus helper costs), and any
// runtime fault. The compiled blocks produce what the reference
// interpreter (the package's tests) does — R0, cost, event stream and map
// end-states — which the differential oracles enforce. There is no
// per-access error plumbing; a verifier/compiler disagreement surfaces as
// a Go panic, converted here to ErrRuntime.
func (lp *LoadedProgram) Run(task *kernel.Task, args []uint64) (r0 uint64, costNS int64, err error) {
	lp.compiledRuns++
	insnNS := task.Kernel().Profile.BPFInsnNS
	// Registers start from zero, as the interpreter's do (and an observed call
	// reads helper-argument registers); the stack is deliberately left
	// dirty — the verifier rejects any read of a stack byte the program did
	// not write this invocation, so stale contents are unobservable.
	ec := &lp.ec
	ec.regs = [regSlots]uint64{}
	ec.regs[R10] = mkPtr(0, StackSize)
	ec.objects = ec.objects[:0]
	ec.task, ec.args = task, args
	ec.executed, ec.helperNS = 0, 0
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
	return ec.regs[R0], cost(ec.executed, ec.helperNS, insnNS), nil
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
