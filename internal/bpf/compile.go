package bpf

import (
	"fmt"

	"tscout/internal/kernel"
)

// This file implements the post-verify JIT: it compiles a verified program
// to native Go, using the abstract-interpretation proofs the verifier
// already computed (DESIGN.md §9) to elide exactly the checks the
// interpreter performs dynamically:
//
//   - No runtime instruction budget: the compiler declines any program with
//     a backward jump, so executed instructions ≤ static length < budget.
//   - No pointer-tag decode or bounds check on memory access: the verifier
//     proved the base register's kind (stack or map value) and offset range
//     at every dereference; exact stack offsets become compile-time
//     constant indices.
//   - No helper-argument validation: map handles proven rkConstMap bind to
//     the concrete Map at compile time, stack-pointer arguments to direct
//     slices; the call devirtualizes to the helper's body.
//
// The compiled form is micro-op blocks joined by a few terminator closures.
// One pass over the instructions (compileInsn) validates each one and either
// pre-decodes it to a microOp — moves, ALU, proven loads and stores, pure and
// proven helper calls, and conditional jumps, which become branch micro-ops
// with a side exit — or, for Exit, Ja, helper calls the analysis could not
// prove out and statically-dead pcs, builds a terminator closure of type
// copFn. fuse then turns every maximal run of micro-ops (any length ≥ 1)
// into one block after peephole has combined idiomatic sequences into
// pattern super-ops, so a block runs from its head until a terminator or the
// next jump target, leaving early only through a taken branch. A copFn
// returns the next one to run (or nil to stop); the dispatch loop is
// runCompiled's `for f != nil { f = f(ec) }`. The instruction set therefore
// has two implementations: the interpreter (the reference) and block.run.
//
// Anything the compiler cannot prove makes it decline the whole program
// with a reason; Run then falls back to the interpreter, which remains the
// reference semantics. Compiled and interpreted execution are bit-identical
// — same R0, same cost() accounting, same helper trace, printk, and map
// end-states — and the differential fuzz oracles enforce that.

// Decline reasons reported in CompileInfo.Reason and surfaced through
// ProcessorStats / `tsctl stats`.
const (
	// DeclineNoAnalysis: the program has no retained verifier analysis
	// (constructed without Load), so no proofs license any elision.
	DeclineNoAnalysis = "no-analysis"
	// DeclineBackEdge: the program contains a backward jump. Bounded loops
	// stay on the interpreter, whose runtime instruction budget is the
	// backstop behind the verifier's trip-count reasoning.
	DeclineBackEdge = "back-edge"
	// DeclineUnsupportedOpcode: an instruction the compiler has no
	// template for.
	DeclineUnsupportedOpcode = "unsupported-opcode"
	// DeclineUnprovenAccess: a reached memory access whose base register
	// the analysis could not prove to be a dereferenceable pointer.
	DeclineUnprovenAccess = "unproven-access"
	// DeclineMalformed: control flow runs off the end of the program or a
	// jump targets an out-of-range pc. Unreachable for Load-verified
	// programs; kept as a defensive decline.
	DeclineMalformed = "malformed-control-flow"
)

// CompileInfo reports the outcome of a Compile attempt.
type CompileInfo struct {
	// Attempted is true once Compile has run.
	Attempted bool
	// Compiled is true when the program now dispatches through the JIT.
	Compiled bool
	// Reason is the decline reason when Compiled is false ("" otherwise).
	Reason string
	// Insns is the static instruction count.
	Insns int
}

// copFn is one compiled terminator or block: execute against ec, return
// the next one, or nil when the program exits or faults (the latter sets
// ec.err).
type copFn func(ec *execState) copFn

type compiledProg struct {
	entry copFn
}

// Compile attempts to JIT the program. On success subsequent Run calls
// dispatch through the compiled form, the analysis it consumed is released
// and a further Compile returns the recorded outcome; on decline they keep
// interpreting and the analysis stays.
// Compile is meant to be called at load time, before the program is
// attached; it is not synchronized against concurrent Run.
func (lp *LoadedProgram) Compile() CompileInfo {
	if lp.compileInfo.Compiled {
		return lp.compileInfo
	}
	info := CompileInfo{Attempted: true, Insns: len(lp.prog.Insns)}
	if cc, reason := lp.decode(); reason != "" {
		info.Reason = reason
	} else {
		cc.fuse()
		lp.compiled.Store(&compiledProg{entry: cc.fns[0]})
		info.Compiled = true
		lp.analysis = nil
	}
	lp.compileInfo = info
	return info
}

// CompileInfo returns the outcome of the last Compile call (zero value if
// Compile was never called).
func (lp *LoadedProgram) CompileInfo() CompileInfo { return lp.compileInfo }

// ProgramJITStats is a point-in-time snapshot of one program's compile
// outcome and dispatch counters, for stats surfaces.
type ProgramJITStats struct {
	Attempted     bool
	Compiled      bool
	DeclineReason string
	CompiledRuns  int64
	InterpRuns    int64
	RuntimeFaults int64
}

// JITStats snapshots the program's compile outcome and dispatch counters.
func (lp *LoadedProgram) JITStats() ProgramJITStats {
	return ProgramJITStats{
		Attempted:     lp.compileInfo.Attempted,
		Compiled:      lp.compileInfo.Compiled,
		DeclineReason: lp.compileInfo.Reason,
		CompiledRuns:  lp.compiledRuns.Load(),
		InterpRuns:    lp.interpRuns.Load(),
		RuntimeFaults: lp.runtimeFaults.Load(),
	}
}

// decode runs the whole-program checks and then the per-instruction pass,
// returning the compiler state fuse works from or the first decline reason.
func (lp *LoadedProgram) decode() (*compiler, string) {
	if lp.analysis == nil {
		return nil, DeclineNoAnalysis
	}
	for _, in := range lp.prog.Insns {
		if isJump(in.Op) && in.Off < 0 {
			return nil, DeclineBackEdge
		}
	}
	n := len(lp.prog.Insns)
	cc := &compiler{lp: lp, p: lp.prog, a: lp.analysis,
		fns: make([]copFn, n), ops: make([]microOp, n)}
	if !cc.markTargets() {
		return nil, DeclineMalformed
	}
	for pc, in := range cc.p.Insns {
		if reason := cc.compileInsn(pc, in); reason != "" {
			return nil, reason
		}
	}
	return cc, ""
}

// runCompiled drives the compiled form. There is no instruction
// budget check (no back-edges, so executed ≤ static length) and no
// per-access error plumbing; a verifier/compiler disagreement surfaces as
// a Go panic, converted here to ErrRuntime so the caller-visible contract
// matches the interpreter's.
func (lp *LoadedProgram) runCompiled(c *compiledProg, task *kernel.Task, args []uint64) (r0 uint64, costNS int64, err error) {
	lp.compiledRuns.Add(1)
	insnNS := task.Kernel().Profile.BPFInsnNS
	ec := lp.getExecState()
	ec.task, ec.args = task, args
	ec.regs[R10] = mkPtr(0, StackSize)
	defer func() {
		if rec := recover(); rec != nil {
			r0 = 0
			costNS = cost(ec.executed, ec.helperNS, insnNS)
			err = fmt.Errorf("%w: compiled execution panic: %v", ErrRuntime, rec)
		}
		ec.task, ec.args = nil, nil
		lp.putExecState(ec)
	}()
	for f := c.entry; f != nil; {
		f = f(ec)
	}
	costNS = cost(ec.executed, ec.helperNS, insnNS)
	if ec.err != nil {
		return 0, costNS, ec.err
	}
	return ec.regs[R0], costNS, nil
}

// getExecState returns a recycled execution state. Registers are zeroed
// (the interpreter starts from zero registers and trace capture may read
// helper-argument registers); the 512-byte stack is deliberately left
// dirty — the verifier rejects any read of a stack byte the program did
// not write this invocation, so stale contents are unobservable. A
// single-slot atomic cache fronts the sync.Pool: marker programs run
// back-to-back on one task, so the common case is an uncontended swap.
func (lp *LoadedProgram) getExecState() *execState {
	ec := lp.ecCache.Swap(nil)
	if ec == nil {
		v := lp.execPool.Get()
		if v == nil {
			return &execState{}
		}
		ec = v.(*execState)
	}
	ec.regs = [regSlots]uint64{}
	ec.objects = ec.objects[:0]
	ec.executed = 0
	ec.helperNS = 0
	ec.err = nil
	return ec
}

func (lp *LoadedProgram) putExecState(ec *execState) {
	if !lp.ecCache.CompareAndSwap(nil, ec) {
		lp.execPool.Put(ec)
	}
}

type compiler struct {
	lp *LoadedProgram
	p  *Program
	a  *Analysis
	// After the compileInsn pass every pc holds exactly one of: a
	// terminator closure in fns[pc], or — where fns[pc] is nil — a
	// micro-op in ops[pc]. fuse then fills the head slot of each micro-op
	// run with its block; run interiors stay nil (they are never jump
	// targets, so only the head can be entered).
	fns      []copFn
	ops      []microOp
	isTarget []bool
}

// markTargets records which pcs are explicit jump targets (fusion must not
// swallow them as run interiors) and validates jump ranges.
func (cc *compiler) markTargets() bool {
	cc.isTarget = make([]bool, len(cc.p.Insns))
	for pc, in := range cc.p.Insns {
		if !isJump(in.Op) {
			continue
		}
		tgt := pc + 1 + int(in.Off)
		if tgt < 0 || tgt >= len(cc.p.Insns) {
			return false
		}
		cc.isTarget[tgt] = true
	}
	return true
}

// next returns the dispatch slot for the instruction after pc. Closures
// capture the slot address, not its value, so the blocks fuse installs
// later take effect everywhere.
func (cc *compiler) next(pc int) (*copFn, bool) {
	if pc+1 >= len(cc.fns) {
		return nil, false
	}
	return &cc.fns[pc+1], true
}

func (cc *compiler) slot(pc int) *copFn { return &cc.fns[pc] }

// trap guards statically-dead pcs: verified control flow can never reach
// them, so hitting one means the analysis and the runtime disagree — fault
// loudly rather than execute unverified code.
func (cc *compiler) trap(pc int) copFn {
	return func(ec *execState) copFn {
		ec.executed++
		ec.err = fmt.Errorf("%w: compiled execution reached statically-dead pc %d", ErrRuntime, pc)
		return nil
	}
}

// compileInsn is the single per-instruction pass: it validates the
// instruction at pc and records its compiled form — a terminator closure
// in fns[pc] for Exit, Ja, unproven helper calls and statically-dead pcs,
// a pre-decoded micro-op in ops[pc] for everything else — or returns the
// reason the program must be declined.
func (cc *compiler) compileInsn(pc int, in Insn) string {
	if !cc.a.Reached(pc) {
		cc.fns[pc] = cc.trap(pc)
		return ""
	}
	switch {
	case in.Op == OpExit:
		cc.fns[pc] = func(ec *execState) copFn {
			ec.executed++
			return nil
		}
		return ""
	case in.Op == OpJa:
		tgt := cc.slot(pc + 1 + int(in.Off))
		cc.fns[pc] = func(ec *execState) copFn {
			ec.executed++
			return *tgt
		}
		return ""
	}

	// Everything else can fall through to pc+1. The decline order is
	// fixed: no template at all, then no successor, then an unproven
	// access.
	op, ok := cc.microFor(pc, in)
	isMem := in.Op == OpLoad || in.Op == OpStore || in.Op == OpStoreImm
	next, hasNext := cc.next(pc)
	switch {
	case !ok && !isMem && in.Op != OpCall:
		return DeclineUnsupportedOpcode
	case !hasNext:
		return DeclineMalformed
	case ok:
		cc.ops[pc] = op
	case isMem:
		return DeclineUnprovenAccess
	default:
		cc.fns[pc] = cc.genericCall(in.Imm, next)
	}
	return ""
}

// memKind classifies a proven memory operand.
type memKind int

const (
	memBad        memKind = iota
	memStackExact         // constant stack index, proven in range
	memStackDyn           // stack base, runtime offset, proven in range
	memObjDyn             // map-value object, runtime offset, proven in range
)

type memRef struct {
	kind memKind
	idx  int // memStackExact: byte index into ec.stack
}

// resolveMem classifies the 8-byte access [r+off] at pc using the
// verifier's register state. The returned forms carry no runtime checks:
// rkPtrStack/rkPtrMapValue kinds were only assigned where checkStackRange
// or the map-value range check proved every byte in bounds.
func (cc *compiler) resolveMem(pc int, r Reg, off int32) memRef {
	st := &cc.a.states[pc].regs[r]
	switch st.kind {
	case rkPtrStack:
		if st.lo == st.hi {
			// Exact frame offset: runtime address is always
			// StackSize + lo (+ off), a compile-time constant.
			idx := StackSize + int(st.lo) + int(off)
			if idx >= 0 && idx+8 <= StackSize {
				return memRef{kind: memStackExact, idx: idx}
			}
		}
		return memRef{kind: memStackDyn}
	case rkPtrMapValue:
		return memRef{kind: memObjDyn}
	}
	return memRef{kind: memBad}
}

// constMap resolves the map a helper call's R1 is proven to hold, or nil.
func (cc *compiler) constMap(st *absState, r Reg) Map {
	rs := &st.regs[r]
	if rs.kind != rkConstMap {
		return nil
	}
	idx := int(rs.mapIdx)
	if idx < 0 || idx >= len(cc.p.Maps) {
		return nil
	}
	return cc.p.Maps[idx]
}

// stackArg builds a fetcher for a size-byte stack argument in register r,
// or nil when the analysis cannot prove one (caller falls back to the
// generic helper dispatcher). Mirrors the interpreter's stackBytes:
// size 0 yields nil bytes.
func (cc *compiler) stackArg(st *absState, r Reg, size int) func(*execState) []byte {
	if size <= 0 {
		return func(*execState) []byte { return nil }
	}
	rs := &st.regs[r]
	if rs.kind != rkPtrStack {
		return nil
	}
	if rs.lo == rs.hi {
		idx := StackSize + int(rs.lo)
		if idx >= 0 && idx+size <= StackSize {
			return func(ec *execState) []byte { return ec.stack[idx : idx+size] }
		}
	}
	reg := r
	return func(ec *execState) []byte {
		a := int(ptrAddr(ec.regs[reg]))
		return ec.stack[a : a+size]
	}
}

// stackArgConst reports the exact stack index of a size-byte argument in
// register r when the analysis pins the pointer to a single slot —
// letting helper bodies slice the stack directly with no fetcher closure.
func (cc *compiler) stackArgConst(st *absState, r Reg, size int) (int, bool) {
	rs := &st.regs[r]
	if size <= 0 || rs.kind != rkPtrStack || rs.lo != rs.hi {
		return 0, false
	}
	idx := StackSize + int(rs.lo)
	if idx < 0 || idx+size > StackSize {
		return 0, false
	}
	return idx, true
}

// scalarConst reports the proven constant value of register r, if any.
func scalarConst(st *absState, r Reg) (int64, bool) {
	rs := &st.regs[r]
	if rs.kind != rkScalar || !rs.vr.IsConst() {
		return 0, false
	}
	return int64(rs.vr.Const()), true
}

// genericCall is the terminator for a helper call the analysis could not
// prove out: it goes through the interpreter's dispatcher, which is always
// correct and reproduces the interpreter's runtime faults.
func (cc *compiler) genericCall(id int64, next *copFn) copFn {
	lp := cc.lp
	return func(ec *execState) copFn {
		ec.executed++
		ns, err := lp.call(ec, id)
		ec.helperNS += ns
		if err != nil {
			ec.err = err
			return nil
		}
		if lp.traceOn.Load() {
			lp.recordCall(ec, id)
		}
		return *next
	}
}

// callBody devirtualizes an impure helper call: it builds the helper's
// fault-free body, or returns nil when the analysis cannot prove one
// (unknown helper, unproven map handle or argument pointer — the caller
// falls back to genericCall). Impure helpers need their map handle proven
// rkConstMap so the concrete Map binds at compile time; the verifier's
// argument-type proofs then rule out every error path, which is what lets
// the body run inside a block as a muHelperCall micro-op. Each body
// preserves the interpreter's observable order — R0 set before the trace
// record — and its exact helperNS charging. Pure helpers never get here:
// callMicro gives them micro kinds of their own.
func (cc *compiler) callBody(pc int, in Insn) func(*execState) {
	lp := cc.lp
	id := in.Imm
	spec, known := HelperByID(id)
	if !known {
		return nil
	}
	costNS := spec.CostNS
	st := &cc.a.states[pc]

	switch id {
	case HelperTracePrintk:
		return func(ec *execState) {
			lp.printkMu.Lock()
			lp.printk = append(lp.printk, ec.regs[R1])
			lp.printkMu.Unlock()
			ec.regs[R0] = 0
			ec.helperNS += costNS
			if lp.traceOn.Load() {
				lp.recordCall(ec, id)
			}
		}

	case HelperMapLookup:
		m := cc.constMap(st, R1)
		if m == nil {
			return nil
		}
		kf := cc.stackArg(st, R2, m.KeySize())
		if kf == nil {
			return nil
		}
		return func(ec *execState) {
			v := m.Lookup(kf(ec))
			if v == nil {
				ec.regs[R0] = 0
			} else {
				ec.regs[R0] = ec.registerObject(v)
			}
			ec.helperNS += costNS
			if lp.traceOn.Load() {
				lp.recordCall(ec, id)
			}
		}
	case HelperMapUpdate:
		m := cc.constMap(st, R1)
		if m == nil {
			return nil
		}
		kf := cc.stackArg(st, R2, m.KeySize())
		vf := cc.stackArg(st, R3, m.ValueSize())
		if kf == nil || vf == nil {
			return nil
		}
		return func(ec *execState) {
			if uerr := m.Update(kf(ec), vf(ec)); uerr != nil {
				ec.regs[R0] = ^uint64(0)
			} else {
				ec.regs[R0] = 0
			}
			ec.helperNS += costNS
			if lp.traceOn.Load() {
				lp.recordCall(ec, id)
			}
		}
	case HelperMapDelete:
		m := cc.constMap(st, R1)
		if m == nil {
			return nil
		}
		ks := m.KeySize()
		kf := cc.stackArg(st, R2, ks)
		if kf == nil {
			return nil
		}
		// Constant-slot key into a hash map — the dominant delete shape
		// (the stale-entry reaper issues 16 of these per run). Bind the
		// concrete map type and the proven stack slot so the body is one
		// flat call with no fetcher closure or interface dispatch.
		if hm, ok := m.(*HashMap); ok {
			if idx, exact := cc.stackArgConst(st, R2, ks); exact {
				return func(ec *execState) {
					if hm.Delete(ec.stack[idx : idx+ks]) {
						ec.regs[R0] = 1
					} else {
						ec.regs[R0] = 0
					}
					ec.helperNS += costNS
					if lp.traceOn.Load() {
						lp.recordCall(ec, id)
					}
				}
			}
		}
		return func(ec *execState) {
			if m.Delete(kf(ec)) {
				ec.regs[R0] = 1
			} else {
				ec.regs[R0] = 0
			}
			ec.helperNS += costNS
			if lp.traceOn.Load() {
				lp.recordCall(ec, id)
			}
		}
	case HelperStackPush:
		sm, _ := cc.constMap(st, R1).(*StackMap)
		if sm == nil {
			return nil
		}
		vf := cc.stackArg(st, R2, sm.ValueSize())
		if vf == nil {
			return nil
		}
		return func(ec *execState) {
			if perr := sm.Push(vf(ec)); perr != nil {
				ec.regs[R0] = ^uint64(0)
			} else {
				ec.regs[R0] = 0
			}
			ec.helperNS += costNS
			if lp.traceOn.Load() {
				lp.recordCall(ec, id)
			}
		}
	case HelperStackPop:
		sm, _ := cc.constMap(st, R1).(*StackMap)
		if sm == nil {
			return nil
		}
		df := cc.stackArg(st, R2, sm.ValueSize())
		if df == nil {
			return nil
		}
		return func(ec *execState) {
			v, perr := sm.Pop()
			if perr != nil {
				ec.regs[R0] = 1
			} else {
				copy(df(ec), v)
				ec.regs[R0] = 0
			}
			ec.helperNS += costNS
			if lp.traceOn.Load() {
				lp.recordCall(ec, id)
			}
		}
	case HelperPerfOutput:
		m := cc.constMap(st, R1)
		rb, ok := m.(*PerCPURing)
		if m == nil || !ok {
			return nil
		}
		size64, isConst := scalarConst(st, R3)
		if !isConst || size64 < 0 {
			return nil
		}
		size := int(size64)
		df := cc.stackArg(st, R2, size)
		if df == nil {
			return nil
		}
		total := costNS + int64(size/16)
		return func(ec *execState) {
			rb.SubmitFrom(ec.task.CPU(), df(ec))
			ec.regs[R0] = 0
			ec.helperNS += total
			if lp.traceOn.Load() {
				lp.recordCall(ec, id)
			}
		}
	}
	return nil
}

// fuse turns every maximal run of micro-ops — consecutive pcs, cut at
// terminators and at jump targets — into one block in the run's head slot,
// so every predecessor (fall-through or jump) enters the block there. A run
// of one instruction is a block like any other: block.run is the only
// native implementation of the instruction set. The run's micro-ops are
// peephole-combined into pattern super-ops first, so one dispatched op can
// retire several instructions; instruction accounting goes by pc, not by
// op count.
func (cc *compiler) fuse() {
	for pc := 0; pc < len(cc.fns); {
		run := cc.run(pc)
		if len(run) == 0 {
			pc++
			continue
		}
		b := &block{ops: peephole(run), fns: cc.fns, head: pc, next: pc + len(run)}
		cc.fns[pc] = b.run
		pc = b.next
	}
}

// run returns the micro-ops of the maximal run starting at pc (empty when
// pc holds a terminator). compileInsn declined any micro-op instruction
// with no successor, so a run never reaches the last pc.
func (cc *compiler) run(pc int) []microOp {
	end := pc
	for end < len(cc.fns) && cc.fns[end] == nil && (end == pc || !cc.isTarget[end]) {
		end++
	}
	return cc.ops[pc:end]
}

// microKind discriminates pre-decoded block micro-ops. Single-insn
// kinds are exactly one program instruction with operands fully resolved;
// the pattern super-ops below the marker retire a short idiomatic
// instruction sequence (codegen emits the same shapes over and over) in
// one dispatch, replaying every architectural side effect of the original
// sequence bit-for-bit.
type microKind uint8

const (
	muMovImm microKind = iota // dst = imm (also LoadMapPtr: imm pre-tagged)
	muMovReg                  // dst = src

	muAddImm
	muAddReg
	muSubImm
	muSubReg
	muMulImm
	muMulReg
	muDivImm
	muDivReg
	muModImm
	muModReg
	muAndImm
	muAndReg
	muOrImm
	muOrReg
	muXorImm
	muXorReg
	muLshImm
	muLshReg
	muRshImm
	muRshReg
	muArshImm
	muArshReg
	muNeg

	muPtrAddImm // dst = ptr(dst) + int64(imm), delta pre-negated for Sub
	muPtrAddReg // dst = ptr(dst) + int64(src)
	muPtrSubReg // dst = ptr(dst) - int64(src)

	muLoadStackExact // dst = stack[idx]
	muLoadStackDyn   // dst = stack[addr(src)+idx]
	muLoadObjDyn     // dst = obj(src)[addr(src)+idx]
	muStoreImmExact  // stack[idx] = imm
	muStoreImmDyn    // stack[addr(base)+idx] = imm  (base in dst)
	muStoreImmObj    // obj(base)[addr(base)+idx] = imm
	muStoreRegExact  // stack[idx] = src
	muStoreRegDyn    // stack[addr(base)+idx] = src
	muStoreRegObj    // obj(base)[addr(base)+idx] = src

	// Pure helper calls. The verifier admits only helpers that exist, and
	// recordCall skips Pure helpers, so these fuse into blocks with no
	// trace or fault plumbing; imm carries the helper's CostNS.
	muCallGetPID
	muCallGetTaskGen
	muCallGetCPU
	muCallKtime
	muCallGetArg      // r0 = args[r1] (0 if OOB)
	muCallReadCounter // r0 = counter r1, part r2
	muCallReadIOAC    // r0 = task ioac field r1
	muCallReadSock    // r0 = tcp_sock field r1

	// Conditional jumps: x is the opcode (compared through condTrue, the
	// interpreter's own predicate), idx the taken pc, idx2 the pc after the
	// jump — what a taken branch has retired, counted from the block head.
	muJccImm // if dst <x> imm, leave the block for idx
	muJccReg // if dst <x> src, leave the block for idx

	// Pattern super-ops (see peephole).
	muStoreZeroRun    // stack[idx : idx+8*idx2] = 0 (idx2 consecutive st 0)
	muLoadObjStore    // x = obj(src)[addr(src)+idx2]; stack[idx] = x
	muGetArgStore     // r1 = imm; r0 = args[imm] (0 if OOB); stack[idx] = r0; +idx2 ns
	muReadCounterLoad // r1 = imm; r2 = src; r0 = read(imm, src); +idx2 ns
	muReadCounterStore
	muScaleStore // the fixed-point normalization idiom, see matchScaleStore

	// Second-pass super-ops built from first-pass outputs (see peephole).
	muDeltaObjStore   // the END-marker delta quad, see matchDeltaObjStore
	muAddImmObjStore  // read-modify-write increment, see matchAddImmObjStore
	muProbeScaleStore // a whole normalized counter probe, see matchProbe

	// muHelperCall runs a devirtualized impure-helper body (fn). The
	// verifier's argument proofs make these bodies fault-free, so the
	// call no longer ends the block.
	muHelperCall
)

// microOp is one pre-decoded instruction — or, for pattern super-ops, a
// short fused sequence. Scalar ops fit the first 24 bytes; fn is only
// set for muHelperCall.
type microOp struct {
	kind        microKind
	dst, src, x uint8
	idx         int32  // resolved stack index, or load/store offset
	idx2        int32  // second resolved index / count / helper cost
	imm         uint64 // immediate / pre-computed constant
	fn          func(*execState)
}

// regMask makes a byte register index provably in-bounds for the padded
// register file, eliminating the bounds check in every block.run arm.
// Fused indices are architectural registers (< numRegs), so masking never
// changes the index.
const regMask = regSlots - 1

// aluMicro maps a scalar ALU opcode to its micro kind.
func aluMicro(op Op) (microKind, bool) {
	switch op {
	case OpAddImm:
		return muAddImm, true
	case OpAddReg:
		return muAddReg, true
	case OpSubImm:
		return muSubImm, true
	case OpSubReg:
		return muSubReg, true
	case OpMulImm:
		return muMulImm, true
	case OpMulReg:
		return muMulReg, true
	case OpDivImm:
		return muDivImm, true
	case OpDivReg:
		return muDivReg, true
	case OpModImm:
		return muModImm, true
	case OpModReg:
		return muModReg, true
	case OpAndImm:
		return muAndImm, true
	case OpAndReg:
		return muAndReg, true
	case OpOrImm:
		return muOrImm, true
	case OpOrReg:
		return muOrReg, true
	case OpXorImm:
		return muXorImm, true
	case OpXorReg:
		return muXorReg, true
	case OpLshImm:
		return muLshImm, true
	case OpLshReg:
		return muLshReg, true
	case OpRshImm:
		return muRshImm, true
	case OpRshReg:
		return muRshReg, true
	case OpArshImm:
		return muArshImm, true
	case OpArshReg:
		return muArshReg, true
	case OpNeg:
		return muNeg, true
	}
	return 0, false
}

// callMicro maps a pure helper call to its micro kind. Impure helpers
// (maps, stacks, perf output, printk) need trace recording and object
// registration; they run as muHelperCall bodies built by callBody.
func callMicro(id int64) (microKind, bool) {
	switch id {
	case HelperGetPID:
		return muCallGetPID, true
	case HelperGetTaskGen:
		return muCallGetTaskGen, true
	case HelperGetCPU:
		return muCallGetCPU, true
	case HelperKtime:
		return muCallKtime, true
	case HelperGetArg:
		return muCallGetArg, true
	case HelperReadCounter:
		return muCallReadCounter, true
	case HelperReadIOAC:
		return muCallReadIOAC, true
	case HelperReadSock:
		return muCallReadSock, true
	}
	return 0, false
}

// microFor pre-decodes one instruction into a micro-op with its operands
// fully resolved, mirroring the interpreter's semantics for that
// instruction exactly. It reports false for what has no micro form: a
// memory access whose base the analysis did not prove, a helper call it
// could not devirtualize, and any opcode with no template; compileInsn
// maps each to its decline reason or fallback.
func (cc *compiler) microFor(pc int, in Insn) (microOp, bool) {
	switch {
	case in.Op == OpMovImm:
		return microOp{kind: muMovImm, dst: uint8(in.Dst), imm: uint64(in.Imm)}, true
	case in.Op == OpMovReg:
		if in.Src == R10 {
			// R10 is the verifier-enforced read-only frame pointer, so a
			// copy of it is the constant mkPtr(0, StackSize) — materialize
			// it as an immediate so a following pointer-ALU step folds.
			return microOp{kind: muMovImm, dst: uint8(in.Dst), imm: mkPtr(0, StackSize)}, true
		}
		return microOp{kind: muMovReg, dst: uint8(in.Dst), src: uint8(in.Src)}, true
	case in.Op == OpLoadMapPtr:
		return microOp{kind: muMovImm, dst: uint8(in.Dst), imm: mapTag | uint64(in.Imm)}, true

	case isCondJump(in.Op):
		op := microOp{kind: muJccImm, dst: uint8(in.Dst), x: uint8(in.Op), imm: uint64(in.Imm),
			idx: int32(pc + 1 + int(in.Off)), idx2: int32(pc + 1)}
		if isRegSrc(in.Op) {
			op.kind, op.src = muJccReg, uint8(in.Src)
		}
		return op, true

	case in.Op == OpCall:
		if k, ok := callMicro(in.Imm); ok {
			spec, known := HelperByID(in.Imm)
			if known && spec.Pure {
				return microOp{kind: k, imm: uint64(spec.CostNS)}, true
			}
		}
		if body := cc.callBody(pc, in); body != nil {
			return microOp{kind: muHelperCall, fn: body}, true
		}
		return microOp{}, false

	case isALU(in.Op):
		if cc.lp.ptrALU[pc] {
			if isRegSrc(in.Op) {
				k := muPtrAddReg
				if in.Op == OpSubReg {
					k = muPtrSubReg
				}
				return microOp{kind: k, dst: uint8(in.Dst), src: uint8(in.Src)}, true
			}
			delta := in.Imm
			if in.Op == OpSubImm {
				delta = -delta
			}
			return microOp{kind: muPtrAddImm, dst: uint8(in.Dst), imm: uint64(delta)}, true
		}
		k, ok := aluMicro(in.Op)
		if !ok {
			return microOp{}, false
		}
		if isRegSrc(in.Op) {
			return microOp{kind: k, dst: uint8(in.Dst), src: uint8(in.Src)}, true
		}
		return microOp{kind: k, dst: uint8(in.Dst), imm: uint64(in.Imm)}, true

	case in.Op == OpLoad:
		m := cc.resolveMem(pc, in.Src, in.Off)
		switch m.kind {
		case memStackExact:
			return microOp{kind: muLoadStackExact, dst: uint8(in.Dst), idx: int32(m.idx)}, true
		case memStackDyn:
			return microOp{kind: muLoadStackDyn, dst: uint8(in.Dst), src: uint8(in.Src), idx: in.Off}, true
		case memObjDyn:
			return microOp{kind: muLoadObjDyn, dst: uint8(in.Dst), src: uint8(in.Src), idx: in.Off}, true
		}
		return microOp{}, false

	case in.Op == OpStoreImm:
		m := cc.resolveMem(pc, in.Dst, in.Off)
		switch m.kind {
		case memStackExact:
			return microOp{kind: muStoreImmExact, idx: int32(m.idx), imm: uint64(in.Imm)}, true
		case memStackDyn:
			return microOp{kind: muStoreImmDyn, dst: uint8(in.Dst), idx: in.Off, imm: uint64(in.Imm)}, true
		case memObjDyn:
			return microOp{kind: muStoreImmObj, dst: uint8(in.Dst), idx: in.Off, imm: uint64(in.Imm)}, true
		}
		return microOp{}, false

	case in.Op == OpStore:
		m := cc.resolveMem(pc, in.Dst, in.Off)
		switch m.kind {
		case memStackExact:
			return microOp{kind: muStoreRegExact, src: uint8(in.Src), idx: int32(m.idx)}, true
		case memStackDyn:
			return microOp{kind: muStoreRegDyn, dst: uint8(in.Dst), src: uint8(in.Src), idx: in.Off}, true
		case memObjDyn:
			return microOp{kind: muStoreRegObj, dst: uint8(in.Dst), src: uint8(in.Src), idx: in.Off}, true
		}
		return microOp{}, false
	}
	return microOp{}, false
}

// peephole combines idiomatic micro-op sequences inside a block into
// pattern super-ops. Every pattern replays the full architectural effect
// of the instructions it absorbs — all intermediate register writes, the
// same division-by-zero and out-of-range results, the same helper cost —
// so it is observationally identical by construction, and the differential
// fuzz oracles check exactly that. Instruction accounting is untouched:
// the block charges its instruction count, not its op count.
func peephole(ops []microOp) []microOp {
	out := rewrite(ops, matchPattern)
	// A second pass matches super-ops produced by the first: a whole
	// counter probe is three counter-read ops plus the normalization
	// super-op, and the END-marker delta quad starts with a load the
	// first pass could not see past.
	return rewrite(out, matchPattern2)
}

// rewrite applies match greedily left to right, copying unmatched ops.
func rewrite(ops []microOp, match func([]microOp) (microOp, int)) []microOp {
	out := make([]microOp, 0, len(ops))
	for i := 0; i < len(ops); {
		if op, n := match(ops[i:]); n > 0 {
			out = append(out, op)
			i += n
			continue
		}
		out = append(out, ops[i])
		i++
	}
	return out
}

func matchPattern(w []microOp) (microOp, int) {
	if n := matchZeroRun(w); n > 0 {
		return microOp{kind: muStoreZeroRun, idx: w[0].idx, idx2: int32(n)}, n
	}
	if op, n := matchScaleStore(w); n > 0 {
		return op, n
	}
	if op, n := matchReadCounter(w); n > 0 {
		return op, n
	}
	if op, n := matchGetArgStore(w); n > 0 {
		return op, n
	}
	if len(w) >= 2 && w[0].kind == muMovImm &&
		w[1].kind == muPtrAddImm && w[1].dst == w[0].dst {
		// Constant-fold pointer arithmetic on a known base — the frame
		// address computation `movr rX, r10; sub rX, off` becomes one
		// immediate. mkPtr/ptrObj/ptrAddr are pure functions of the bits,
		// so the fold replays muPtrAddImm on the constant exactly.
		p := w[0].imm
		return microOp{kind: muMovImm, dst: w[0].dst,
			imm: mkPtr(ptrObj(p), uint32(int64(ptrAddr(p))+int64(w[1].imm)))}, 2
	}
	if len(w) >= 2 && w[0].kind == muLoadObjDyn &&
		w[1].kind == muStoreRegExact && w[1].src == w[0].dst {
		// Load-then-spill pair: codegen stages every sample field through
		// a scratch register into the output frame.
		return microOp{kind: muLoadObjStore, src: w[0].src, x: w[0].dst,
			idx2: w[0].idx, idx: w[1].idx}, 2
	}
	return microOp{}, 0
}

func matchPattern2(w []microOp) (microOp, int) {
	if op, n := matchKeyedCall(w); n > 0 {
		return op, n
	}
	if op, n := matchProbe(w); n > 0 {
		return op, n
	}
	if op, n := matchDeltaObjStore(w); n > 0 {
		return op, n
	}
	if op, n := matchAddImmObjStore(w); n > 0 {
		return op, n
	}
	if op, n := matchCallSetup(w); n > 0 {
		return op, n
	}
	return microOp{}, 0
}

// matchKeyedCall recognizes the slot-keyed map-call idiom — the stale
// entry reaper builds (gen<<S)+slot keys for all 16 recursion depths and
// deletes each one:
//
//	ldx rA, [fp-X]; lsh rA, S; add rA, SLOT; stx [fp-K], rA
//	ldmap r1, map[M]; (movr r2, r10; sub r2, off → folded mov)
//	call <devirtualized>
//
// The whole 8-instruction sequence (7 first-pass ops) bakes into one
// specialized closure that replays every register and stack write in
// program order before invoking the fault-free helper body.
func matchKeyedCall(w []microOp) (microOp, int) {
	if len(w) < 7 ||
		w[0].kind != muLoadStackExact ||
		w[1].kind != muLshImm || w[1].dst != w[0].dst ||
		w[2].kind != muAddImm || w[2].dst != w[0].dst ||
		w[3].kind != muStoreRegExact || w[3].src != w[0].dst ||
		w[4].kind != muMovImm ||
		w[5].kind != muMovImm ||
		w[6].kind != muHelperCall {
		return microOp{}, 0
	}
	a := w[0].dst & regMask
	x, k := w[0].idx, w[3].idx
	s, add := w[1].imm&63, w[2].imm
	d1, i1 := w[4].dst&regMask, w[4].imm
	d2, i2 := w[5].dst&regMask, w[5].imm
	f := w[6].fn
	// The reaper idiom accumulates each delete's result (`add r6, r0`)
	// right after the call; fold that add into the same closure so the
	// whole 9-instruction slot sweep is a single dispatch.
	if len(w) >= 8 && w[7].kind == muAddReg {
		ad, as := w[7].dst&regMask, w[7].src&regMask
		return microOp{kind: muHelperCall, fn: func(ec *execState) {
			v := U64(ec.stack[x:x+8])<<s + add
			ec.regs[a] = v
			PutU64(ec.stack[k:k+8], v)
			ec.regs[d1] = i1
			ec.regs[d2] = i2
			f(ec)
			ec.regs[ad] += ec.regs[as]
		}}, 8
	}
	return microOp{kind: muHelperCall, fn: func(ec *execState) {
		v := U64(ec.stack[x:x+8])<<s + add
		ec.regs[a] = v
		PutU64(ec.stack[k:k+8], v)
		ec.regs[d1] = i1
		ec.regs[d2] = i2
		f(ec)
	}}, 7
}

// matchCallSetup bakes a short run of constant setup ops — immediate
// register loads (map handles, folded frame pointers, sizes) and
// constant stack stores — into the devirtualized call they feed, so a
// whole `ldmap; mov; mov; call` sequence is one dispatch.
func matchCallSetup(w []microOp) (microOp, int) {
	n := 0
	for n < len(w)-1 && n < 3 &&
		(w[n].kind == muMovImm || w[n].kind == muStoreImmExact) {
		n++
	}
	if n == 0 || w[n].kind != muHelperCall {
		return microOp{}, 0
	}
	f := w[n].fn
	if n == 2 && w[0].kind == muMovImm && w[1].kind == muMovImm {
		d1, i1 := w[0].dst&regMask, w[0].imm
		d2, i2 := w[1].dst&regMask, w[1].imm
		return microOp{kind: muHelperCall, fn: func(ec *execState) {
			ec.regs[d1] = i1
			ec.regs[d2] = i2
			f(ec)
		}}, 3
	}
	setup := append([]microOp(nil), w[:n]...)
	return microOp{kind: muHelperCall, fn: func(ec *execState) {
		for i := range setup {
			op := &setup[i]
			if op.kind == muMovImm {
				ec.regs[op.dst&regMask] = op.imm
			} else {
				PutU64(ec.stack[op.idx:op.idx+8], op.imm)
			}
		}
		f(ec)
	}}, n + 1
}

// matchZeroRun recognizes the frame-zeroing prologue: ≥3 consecutive
// 8-byte stores of zero to ascending adjacent stack slots.
func matchZeroRun(w []microOp) int {
	n := 0
	for ; n < len(w); n++ {
		if w[n].kind != muStoreImmExact || w[n].imm != 0 ||
			w[n].idx != w[0].idx+int32(8*n) {
			break
		}
	}
	if n < 3 {
		return 0
	}
	return n
}

// matchReadCounter recognizes the counter-read idiom
//
//	mov r1, C; mov r2, PART; call read_perf_counter [; stx [fp-D], r0]
//
// with constant selector and part. The counter id goes in imm, the part in
// src (guarded < 256), the helper cost in idx2, and the spill slot in idx.
func matchReadCounter(w []microOp) (microOp, int) {
	if len(w) < 3 ||
		w[0].kind != muMovImm || w[0].dst != uint8(R1) ||
		w[1].kind != muMovImm || w[1].dst != uint8(R2) || w[1].imm > 0xff ||
		w[2].kind != muCallReadCounter {
		return microOp{}, 0
	}
	op := microOp{kind: muReadCounterLoad, imm: w[0].imm,
		src: uint8(w[1].imm), idx2: int32(w[2].imm)}
	if len(w) >= 4 && w[3].kind == muStoreRegExact && w[3].src == uint8(R0) {
		op.kind = muReadCounterStore
		op.idx = w[3].idx
		return op, 4
	}
	return op, 3
}

// matchGetArgStore recognizes mov r1, I; call get_tracepoint_arg;
// stx [fp-D], r0 — how every tracepoint argument lands in the frame.
func matchGetArgStore(w []microOp) (microOp, int) {
	if len(w) < 3 ||
		w[0].kind != muMovImm || w[0].dst != uint8(R1) ||
		w[1].kind != muCallGetArg ||
		w[2].kind != muStoreRegExact || w[2].src != uint8(R0) {
		return microOp{}, 0
	}
	return microOp{kind: muGetArgStore, imm: w[0].imm,
		idx2: int32(w[1].imm), idx: w[2].idx}, 3
}

// matchScaleStore recognizes the fixed-point multiplexing-normalization
// idiom codegen emits for every CPU counter (paper §4.1):
//
//	ldx rX, [fp-A]; lsh rX, S; ldx rY, [fp-B]; divr rX, rY
//	mulr rZ, rX; rsh rZ, S; stx [fp-D], rZ
//
// X, Y, Z must be pairwise distinct so the replay's write order is
// equivalent; A and B pack into imm with the shift.
func matchScaleStore(w []microOp) (microOp, int) {
	if len(w) < 7 {
		return microOp{}, 0
	}
	x, y, z := w[0].dst, w[2].dst, w[4].dst
	s := w[1].imm
	if w[0].kind != muLoadStackExact ||
		w[1].kind != muLshImm || w[1].dst != x || s >= 64 ||
		w[2].kind != muLoadStackExact || y == x ||
		w[3].kind != muDivReg || w[3].dst != x || w[3].src != y ||
		w[4].kind != muMulReg || w[4].src != x || z == x || z == y ||
		w[5].kind != muRshImm || w[5].dst != z || w[5].imm != s ||
		w[6].kind != muStoreRegExact || w[6].src != z {
		return microOp{}, 0
	}
	return microOp{kind: muScaleStore, dst: z, src: x, x: y, idx: w[6].idx,
		imm: uint64(uint32(w[0].idx))<<32 | uint64(uint32(w[2].idx))<<16 | s}, 7
}

// matchProbe recognizes a complete normalized counter probe — the
// first-pass outputs for
//
//	read(C, enabled) → [fp-A]; read(C, running) → [fp-B]; read(C, raw)
//	normalize → [fp-D]
//
// — and fuses all 18 instructions into one op that calls Perf().Read
// once (one Reading carries raw, enabled, and running; the three
// interpreter reads of the same counter see identical state, so one read
// is bit-equivalent). The counter id joins A, B, and the shift in imm;
// idx2 accumulates all three helper costs.
func matchProbe(w []microOp) (microOp, int) {
	if len(w) < 4 ||
		w[0].kind != muReadCounterStore || w[0].src != CounterPartEnabled ||
		w[1].kind != muReadCounterStore || w[1].src != CounterPartRunning ||
		w[1].imm != w[0].imm ||
		w[2].kind != muReadCounterLoad || w[2].src != CounterPartRaw ||
		w[2].imm != w[0].imm ||
		w[3].kind != muScaleStore {
		return microOp{}, 0
	}
	c, a, b := w[0].imm, w[0].idx, w[1].idx
	sa := int32(uint32(w[3].imm>>32) & 0xffff)
	sb := int32(uint32(w[3].imm>>16) & 0xffff)
	if sa != a || sb != b || a == b || c > 0xff ||
		uint32(a) > 0xffff || uint32(b) > 0xffff {
		return microOp{}, 0
	}
	return microOp{kind: muProbeScaleStore,
		dst: w[3].dst, src: w[3].src, x: w[3].x, idx: w[3].idx,
		idx2: w[0].idx2 + w[1].idx2 + w[2].idx2,
		imm:  c<<48 | uint64(uint32(a))<<32 | uint64(uint32(b))<<16 | w[3].imm&63}, 4
}

// matchDeltaObjStore recognizes the END-marker delta quad codegen emits
// for every accumulated metric (new snapshot minus BEGIN snapshot, stored
// back into the map entry):
//
//	ldx rA, [fp-X]; ldx rB, [rM+K]; subr rA, rB; stx [rM+K], rA
//
// A, B, M pairwise distinct so the replay's write order is equivalent.
func matchDeltaObjStore(w []microOp) (microOp, int) {
	if len(w) < 4 ||
		w[0].kind != muLoadStackExact ||
		w[1].kind != muLoadObjDyn ||
		w[2].kind != muSubReg ||
		w[3].kind != muStoreRegObj {
		return microOp{}, 0
	}
	a, b, base := w[0].dst, w[1].dst, w[1].src
	if a == b || a == base || b == base ||
		w[2].dst != a || w[2].src != b ||
		w[3].dst != base || w[3].src != a || w[3].idx != w[1].idx {
		return microOp{}, 0
	}
	return microOp{kind: muDeltaObjStore, dst: a, src: base, x: b,
		idx: w[1].idx, idx2: w[0].idx}, 4
}

// matchAddImmObjStore recognizes the in-place map-slot increment
// (error-slot and occurrence counters):
//
//	ldx rB, [rM+K]; add rB, I; stx [rM+K], rB
func matchAddImmObjStore(w []microOp) (microOp, int) {
	if len(w) < 3 ||
		w[0].kind != muLoadObjDyn ||
		w[1].kind != muAddImm || w[1].dst != w[0].dst ||
		w[2].kind != muStoreRegObj {
		return microOp{}, 0
	}
	b, base := w[0].dst, w[0].src
	if b == base || w[2].dst != base || w[2].src != b || w[2].idx != w[0].idx {
		return microOp{}, 0
	}
	return microOp{kind: muAddImmObjStore, src: base, x: b,
		idx: w[0].idx, imm: w[1].imm}, 3
}

// block is one compiled superblock: the micro-ops of the instructions at
// pcs [head, next), entered only at head. Successors are read from the
// program's dispatch table when the block leaves, not bound when it is
// built, because fuse fills the table's block heads in pc order.
type block struct {
	ops        []microOp
	fns        []copFn
	head, next int
}

// run executes the block. The switch compiles to a jump table; operand
// resolution happened at compile time, so each case is a handful of machine
// instructions with no tag decode, no bounds reasoning, and no
// per-instruction accounting: the block charges next-head instructions when
// it runs off its end, and a taken branch charges the instructions up to
// and including itself — with pattern super-ops either exceeds the ops
// dispatched.
//
// run must stay a function the compiler builds on its own. As a closure
// returned by a constructor small enough to be inlined into fuse, the copy
// that actually ran was compiled without inlining anything: 57 real CALLs
// to one-line helpers (PutU64, ptrAddr, U64, Task.Perf, ...) inside this
// loop, each spilling every live register. scripts/check.sh lint
// disassembles this symbol and fails on any call it does not expect.
func (blk *block) run(ec *execState) copFn {
	ops := blk.ops
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case muMovImm:
			ec.regs[op.dst&regMask] = op.imm
		case muMovReg:
			ec.regs[op.dst&regMask] = ec.regs[op.src&regMask]

		case muAddImm:
			ec.regs[op.dst&regMask] += op.imm
		case muAddReg:
			ec.regs[op.dst&regMask] += ec.regs[op.src&regMask]
		case muSubImm:
			ec.regs[op.dst&regMask] -= op.imm
		case muSubReg:
			ec.regs[op.dst&regMask] -= ec.regs[op.src&regMask]
		case muMulImm:
			ec.regs[op.dst&regMask] *= op.imm
		case muMulReg:
			ec.regs[op.dst&regMask] *= ec.regs[op.src&regMask]
		case muDivImm:
			if op.imm == 0 {
				ec.regs[op.dst&regMask] = 0
			} else {
				ec.regs[op.dst&regMask] /= op.imm
			}
		case muDivReg:
			if b := ec.regs[op.src&regMask]; b == 0 {
				ec.regs[op.dst&regMask] = 0
			} else {
				ec.regs[op.dst&regMask] /= b
			}
		case muModImm:
			if op.imm == 0 {
				ec.regs[op.dst&regMask] = 0
			} else {
				ec.regs[op.dst&regMask] %= op.imm
			}
		case muModReg:
			if b := ec.regs[op.src&regMask]; b == 0 {
				ec.regs[op.dst&regMask] = 0
			} else {
				ec.regs[op.dst&regMask] %= b
			}
		case muAndImm:
			ec.regs[op.dst&regMask] &= op.imm
		case muAndReg:
			ec.regs[op.dst&regMask] &= ec.regs[op.src&regMask]
		case muOrImm:
			ec.regs[op.dst&regMask] |= op.imm
		case muOrReg:
			ec.regs[op.dst&regMask] |= ec.regs[op.src&regMask]
		case muXorImm:
			ec.regs[op.dst&regMask] ^= op.imm
		case muXorReg:
			ec.regs[op.dst&regMask] ^= ec.regs[op.src&regMask]
		case muLshImm:
			ec.regs[op.dst&regMask] <<= op.imm & 63
		case muLshReg:
			ec.regs[op.dst&regMask] <<= ec.regs[op.src&regMask] & 63
		case muRshImm:
			ec.regs[op.dst&regMask] >>= op.imm & 63
		case muRshReg:
			ec.regs[op.dst&regMask] >>= ec.regs[op.src&regMask] & 63
		case muArshImm:
			ec.regs[op.dst&regMask] = uint64(int64(ec.regs[op.dst&regMask]) >> (op.imm & 63))
		case muArshReg:
			ec.regs[op.dst&regMask] = uint64(int64(ec.regs[op.dst&regMask]) >> (ec.regs[op.src&regMask] & 63))
		case muNeg:
			ec.regs[op.dst&regMask] = -ec.regs[op.dst&regMask]

		case muPtrAddImm:
			d := ec.regs[op.dst&regMask]
			ec.regs[op.dst&regMask] = mkPtr(ptrObj(d), uint32(int64(ptrAddr(d))+int64(op.imm)))
		case muPtrAddReg:
			d := ec.regs[op.dst&regMask]
			ec.regs[op.dst&regMask] = mkPtr(ptrObj(d), uint32(int64(ptrAddr(d))+int64(ec.regs[op.src&regMask])))
		case muPtrSubReg:
			d := ec.regs[op.dst&regMask]
			ec.regs[op.dst&regMask] = mkPtr(ptrObj(d), uint32(int64(ptrAddr(d))-int64(ec.regs[op.src&regMask])))

		case muLoadStackExact:
			ec.regs[op.dst&regMask] = U64(ec.stack[op.idx : op.idx+8])
		case muLoadStackDyn:
			a := int32(ptrAddr(ec.regs[op.src&regMask])) + op.idx
			ec.regs[op.dst&regMask] = U64(ec.stack[a : a+8])
		case muLoadObjDyn:
			v := ec.regs[op.src&regMask]
			b := ec.objects[ptrObj(v)-1]
			a := int32(ptrAddr(v)) + op.idx
			ec.regs[op.dst&regMask] = U64(b[a : a+8])
		case muStoreImmExact:
			PutU64(ec.stack[op.idx:op.idx+8], op.imm)
		case muStoreImmDyn:
			a := int32(ptrAddr(ec.regs[op.dst&regMask])) + op.idx
			PutU64(ec.stack[a:a+8], op.imm)
		case muStoreImmObj:
			v := ec.regs[op.dst&regMask]
			b := ec.objects[ptrObj(v)-1]
			a := int32(ptrAddr(v)) + op.idx
			PutU64(b[a:a+8], op.imm)
		case muStoreRegExact:
			PutU64(ec.stack[op.idx:op.idx+8], ec.regs[op.src&regMask])
		case muStoreRegDyn:
			a := int32(ptrAddr(ec.regs[op.dst&regMask])) + op.idx
			PutU64(ec.stack[a:a+8], ec.regs[op.src&regMask])
		case muStoreRegObj:
			v := ec.regs[op.dst&regMask]
			b := ec.objects[ptrObj(v)-1]
			a := int32(ptrAddr(v)) + op.idx
			PutU64(b[a:a+8], ec.regs[op.src&regMask])

		case muCallGetPID:
			ec.regs[R0] = uint64(ec.task.PID)
			ec.helperNS += int64(op.imm)
		case muCallGetTaskGen:
			ec.regs[R0] = ec.task.Gen()
			ec.helperNS += int64(op.imm)
		case muCallGetCPU:
			ec.regs[R0] = uint64(ec.task.CPU())
			ec.helperNS += int64(op.imm)
		case muCallKtime:
			ec.regs[R0] = uint64(ec.task.Now())
			ec.helperNS += int64(op.imm)
		case muCallGetArg:
			if i := int(ec.regs[R1]); i >= 0 && i < len(ec.args) {
				ec.regs[R0] = ec.args[i]
			} else {
				ec.regs[R0] = 0
			}
			ec.helperNS += int64(op.imm)
		case muCallReadCounter:
			ec.regs[R0] = readCounterHelper(ec.task, ec.regs[R1], ec.regs[R2])
			ec.helperNS += int64(op.imm)
		case muCallReadIOAC:
			ec.regs[R0] = readIOACHelper(ec.task, ec.regs[R1])
			ec.helperNS += int64(op.imm)
		case muCallReadSock:
			ec.regs[R0] = readSockHelper(ec.task, ec.regs[R1])
			ec.helperNS += int64(op.imm)

		case muJccImm:
			if condTrue(Op(op.x), ec.regs[op.dst&regMask], op.imm) {
				ec.executed += int(op.idx2) - blk.head
				return blk.fns[op.idx]
			}
		case muJccReg:
			if condTrue(Op(op.x), ec.regs[op.dst&regMask], ec.regs[op.src&regMask]) {
				ec.executed += int(op.idx2) - blk.head
				return blk.fns[op.idx]
			}

		case muStoreZeroRun:
			clear(ec.stack[op.idx : op.idx+8*op.idx2])
		case muLoadObjStore:
			v := ec.regs[op.src&regMask]
			b := ec.objects[ptrObj(v)-1]
			a := int32(ptrAddr(v)) + op.idx2
			x := U64(b[a : a+8])
			ec.regs[op.x&regMask] = x
			PutU64(ec.stack[op.idx:op.idx+8], x)
		case muGetArgStore:
			ec.regs[R1] = op.imm
			var v uint64
			if i := int(op.imm); i >= 0 && i < len(ec.args) {
				v = ec.args[i]
			}
			ec.regs[R0] = v
			PutU64(ec.stack[op.idx:op.idx+8], v)
			ec.helperNS += int64(op.idx2)
		case muReadCounterLoad:
			ec.regs[R1] = op.imm
			ec.regs[R2] = uint64(op.src)
			ec.regs[R0] = readCounterHelper(ec.task, op.imm, uint64(op.src))
			ec.helperNS += int64(op.idx2)
		case muReadCounterStore:
			ec.regs[R1] = op.imm
			ec.regs[R2] = uint64(op.src)
			v := readCounterHelper(ec.task, op.imm, uint64(op.src))
			ec.regs[R0] = v
			PutU64(ec.stack[op.idx:op.idx+8], v)
			ec.helperNS += int64(op.idx2)
		case muScaleStore:
			a := int32(uint32(op.imm >> 32))
			bidx := int32(uint32(op.imm>>16) & 0xffff)
			s := op.imm & 63
			vx := U64(ec.stack[a:a+8]) << s
			vy := U64(ec.stack[bidx : bidx+8])
			if vy == 0 {
				vx = 0
			} else {
				vx /= vy
			}
			ec.regs[op.src&regMask] = vx
			ec.regs[op.x&regMask] = vy
			z := (ec.regs[op.dst&regMask] * vx) >> s
			ec.regs[op.dst&regMask] = z
			PutU64(ec.stack[op.idx:op.idx+8], z)

		case muDeltaObjStore:
			va := U64(ec.stack[op.idx2 : op.idx2+8])
			v := ec.regs[op.src&regMask]
			b := ec.objects[ptrObj(v)-1]
			a := int32(ptrAddr(v)) + op.idx
			vb := U64(b[a : a+8])
			ec.regs[op.x&regMask] = vb
			d := va - vb
			ec.regs[op.dst&regMask] = d
			PutU64(b[a:a+8], d)
		case muAddImmObjStore:
			v := ec.regs[op.src&regMask]
			b := ec.objects[ptrObj(v)-1]
			a := int32(ptrAddr(v)) + op.idx
			nv := U64(b[a:a+8]) + op.imm
			ec.regs[op.x&regMask] = nv
			PutU64(b[a:a+8], nv)
		case muProbeScaleStore:
			c := kernel.Counter(op.imm >> 48)
			a := int32(uint32(op.imm>>32) & 0xffff)
			bidx := int32(uint32(op.imm>>16) & 0xffff)
			s := op.imm & 63
			var raw, en, run uint64
			if c.Valid() {
				r := ec.task.Perf().Read(c)
				raw = uint64(int64(r.Raw))
				en = uint64(r.TimeEnabled * perfScale)
				run = uint64(r.TimeRunning * perfScale)
			}
			ec.regs[R1] = uint64(c)
			ec.regs[R2] = CounterPartRaw
			ec.regs[R0] = raw
			PutU64(ec.stack[a:a+8], en)
			PutU64(ec.stack[bidx:bidx+8], run)
			vx := en << s
			if run == 0 {
				vx = 0
			} else {
				vx /= run
			}
			ec.regs[op.src&regMask] = vx
			ec.regs[op.x&regMask] = run
			z := (ec.regs[op.dst&regMask] * vx) >> s
			ec.regs[op.dst&regMask] = z
			PutU64(ec.stack[op.idx:op.idx+8], z)
			ec.helperNS += int64(op.idx2)

		case muHelperCall:
			op.fn(ec)
		}
	}
	ec.executed += blk.next - blk.head
	return blk.fns[blk.next]
}

// readCounterHelper is the shared core of HelperReadCounter across the
// single-call micro-op and the counter-read super-ops: exact interpreter
// semantics, including the invalid-selector and unknown-part zeros.
func readCounterHelper(task *kernel.Task, sel, part uint64) uint64 {
	c := kernel.Counter(sel)
	if !c.Valid() {
		return 0
	}
	r := task.Perf().Read(c)
	switch part {
	case CounterPartRaw:
		return uint64(int64(r.Raw))
	case CounterPartEnabled:
		return uint64(r.TimeEnabled * perfScale)
	case CounterPartRunning:
		return uint64(r.TimeRunning * perfScale)
	default:
		return 0
	}
}

func readIOACHelper(task *kernel.Task, field uint64) uint64 {
	switch field {
	case IOACReadBytes:
		return uint64(task.IOAC.ReadBytes)
	case IOACWriteBytes:
		return uint64(task.IOAC.WriteBytes)
	case IOACReadOps:
		return uint64(task.IOAC.ReadOps)
	case IOACWriteOps:
		return uint64(task.IOAC.WriteOps)
	default:
		return 0
	}
}

func readSockHelper(task *kernel.Task, field uint64) uint64 {
	switch field {
	case SockBytesReceived:
		return uint64(task.Sock.BytesReceived)
	case SockBytesSent:
		return uint64(task.Sock.BytesSent)
	case SockSegsIn:
		return uint64(task.Sock.SegsIn)
	case SockSegsOut:
		return uint64(task.Sock.SegsOut)
	default:
		return 0
	}
}
