package bpf

import (
	"tscout/internal/kernel"
)

// This file implements the JIT that Load runs after verifying: it compiles
// a verified program to native Go, using the abstract-interpretation proofs
// the verifier already computed (DESIGN.md §9) to elide exactly the checks
// a plain interpreter performs dynamically:
//
//   - Nothing counts toward a runtime limit: the verifier rejects every
//     backward jump, so a run retires each instruction at most once.
//   - No pointer-tag decode or bounds check on memory access: the verifier
//     proved the base register's kind (stack or map value) and its one
//     exact offset at every dereference, so a stack access is a
//     compile-time constant index.
//   - No helper dispatch or argument validation: map handles proven
//     rkConstMap bind to the concrete map at compile time and the stack
//     pointer arguments, which the verifier admits only at exact slots, to
//     constant indices; every call becomes a callFrame.
//
// The compiled form is micro-op blocks and the closures that end a run at
// Exit.
// One pass over the instructions (compileInsn) pre-decodes each reached one
// to a microOp — moves, ALU, proven loads and stores, pure helper calls,
// map and perf-output calls bound to a callFrame, and jumps, which become
// branch micro-ops with a side exit — or, for Exit, builds the terminator
// closure of type copFn.
// fuse then turns every maximal run of micro-ops (any length ≥ 1) into one
// block after peephole has combined idiomatic sequences into pattern
// super-ops, so a block runs from its head until a terminator or the next
// jump target, leaving early only through a taken branch. A copFn returns
// the next one to run (or nil to stop); the dispatch loop is Run's
// `for f != nil { f = f(ec) }`. block.run is the one implementation of the
// instruction set that runs; the interpreter in the package's tests
// (interp_test.go) is its specification.
//
// The compiler is total on verified programs, as a kernel built with
// CONFIG_BPF_JIT_ALWAYS_ON requires: every instruction the verifier admits
// has a template, and every proof a template needs is one the verifier
// made. Compiled execution is bit-identical to the interpreter's — same
// R0, same cost() accounting, same event stream and map end-states — and
// the differential oracles enforce that.

// CompileInfo reports a compiled program's static size.
type CompileInfo struct {
	// Insns is the static instruction count.
	Insns int
	// Ops is the number of micro-ops the compiled blocks hold after
	// peephole fusion.
	Ops int
}

// copFn is one compiled terminator or block: execute against ec, return
// the next one, or nil when the program exits. Nothing compiled returns a
// fault: the verifier's proofs rule every one out.
type copFn func(ec *execState) copFn

// compile JITs lp's program from a, the analysis that verified it. Nothing
// compiled keeps a: the proof is megabytes per deployment and nothing
// reads it again. On a program a proves it cannot fail. Its one error
// wraps ErrVerification as a *VerifyError naming the instruction no proof
// covers: an analysis of some other program.
func (lp *LoadedProgram) compile(a *Analysis) error {
	cc, err := lp.decode(a)
	if err != nil {
		return withInsn(lp.prog, err)
	}
	lp.compileInfo = CompileInfo{Insns: len(lp.prog.Insns), Ops: cc.fuse()}
	lp.compiled = cc.fns[0]
	return nil
}

// ProgramJITStats is a point-in-time snapshot of one program's compiled
// size and dispatch counters, for stats surfaces.
type ProgramJITStats struct {
	// Insns and Ops are CompileInfo's static instruction and micro-op
	// counts.
	Insns, Ops   int
	CompiledRuns int64
	// InterpRuns is always 0: every program runs compiled.
	InterpRuns    int64 //tsvet:ignore unset-field benchmark/ reads it until ROADMAP item 1-S
	RuntimeFaults int64
}

// JITStats snapshots the program's compiled size and dispatch counters.
func (lp *LoadedProgram) JITStats() ProgramJITStats {
	return ProgramJITStats{
		Insns:         lp.compileInfo.Insns,
		Ops:           lp.compileInfo.Ops,
		CompiledRuns:  lp.compiledRuns,
		RuntimeFaults: lp.runtimeFaults,
	}
}

// decode runs the whole-program checks and then the per-instruction pass
// over lp's program with the proofs in a, returning the compiler state fuse
// works from or the first pc no proof covers.
func (lp *LoadedProgram) decode(a *Analysis) (*compiler, error) {
	n := len(lp.prog.Insns)
	cc := &compiler{p: lp.prog, a: a,
		fns: make([]copFn, n), ops: make([]microOp, n)}
	if err := cc.markTargets(); err != nil {
		return nil, err
	}
	for pc, in := range cc.p.Insns {
		if err := cc.compileInsn(pc, in); err != nil {
			return nil, err
		}
	}
	return cc, nil
}

type compiler struct {
	p *Program
	a *Analysis
	// After the compileInsn pass every pc holds exactly one of: a
	// terminator closure in fns[pc], or — where fns[pc] is nil — a
	// micro-op in ops[pc]. fuse then fills the head slot of each micro-op
	// run with its block; run interiors stay nil (they are never jump
	// targets, so only the head can be entered).
	fns      []copFn
	ops      []microOp
	isTarget []bool
	// frames[pc] is the callFrame the call at pc binds to (nil elsewhere,
	// and nil until the first one); matchFrame widens it.
	frames []*callFrame
}

// markTargets records which pcs are explicit jump targets (fusion must not
// swallow them as run interiors) and checks jump ranges.
func (cc *compiler) markTargets() error {
	cc.isTarget = make([]bool, len(cc.p.Insns))
	for pc, in := range cc.p.Insns {
		if !isJump(in.Op) {
			continue
		}
		tgt := pc + 1 + int(in.Off)
		if tgt < 0 || tgt >= len(cc.p.Insns) {
			return verr(pc, "compile: jump target %d out of range", tgt)
		}
		cc.isTarget[tgt] = true
	}
	return nil
}

// compileInsn is the single per-instruction pass: it records the compiled
// form of the instruction at pc — a terminator closure in fns[pc] for Exit,
// a pre-decoded micro-op in ops[pc] for everything else. A pc the analysis
// never reached (every edge into it was proven infeasible) gets no code at
// all; run ends a block before it.
func (cc *compiler) compileInsn(pc int, in Insn) error {
	if !cc.a.Reached(pc) {
		return nil
	}
	switch in.Op {
	case OpExit:
		cc.fns[pc] = func(ec *execState) copFn {
			ec.executed++
			return nil
		}
		return nil
	}

	// Everything else falls through to pc+1.
	if pc+1 >= len(cc.fns) {
		return verr(pc, "compile: runs off the end of the program")
	}
	op, ok := cc.microFor(pc, in)
	if !ok {
		return verr(pc, "compile: no proof covers the instruction")
	}
	cc.ops[pc] = op
	return nil
}

// memKind classifies a proven memory operand.
type memKind int

const (
	memBad        memKind = iota
	memStackExact         // constant stack index, proven in range
	memObjDyn             // map-value object, runtime offset, proven in range
)

type memRef struct {
	kind memKind
	idx  int // memStackExact: byte index into ec.stack
}

// resolveMem classifies the 8-byte access [r+off] at pc using the
// verifier's register state. The returned forms carry no runtime checks:
// checkStack or checkMapValueAccess proved every byte in bounds.
func (cc *compiler) resolveMem(pc int, r Reg, off int32) memRef {
	st := &cc.a.states[pc].regs[r]
	switch st.kind {
	case rkPtrStack:
		// The runtime address is StackSize plus the pointer's offset
		// plus the instruction's: a compile-time constant.
		if idx := StackSize + int(st.off) + int(off); idx >= 0 && idx+8 <= StackSize {
			return memRef{kind: memStackExact, idx: idx}
		}
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

// stackArgConst reports the stack index of a size-byte argument in
// register r, a stack pointer at its one exact offset — what lets a
// callFrame slice the stack at constant indices.
func (cc *compiler) stackArgConst(st *absState, r Reg, size int) (int, bool) {
	rs := &st.regs[r]
	if size <= 0 || rs.kind != rkPtrStack {
		return 0, false
	}
	idx := StackSize + int(rs.off)
	if idx < 0 || idx > StackSize-size {
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

// Registers of the padded register file that no instruction names (they
// lie past R10, so the verifier rejects any program that uses them). A
// callFrame writes the parts of its fixed shape a call site does not have
// to them: regZero only ever receives zero, so it also serves as a zero
// addend, and regSink absorbs the rest. Every run starts them at zero.
const (
	regZero = regSlots - 1
	regSink = regSlots - 2
)

// Call-frame helpers: the concrete map type and helper a frame is bound to.
const (
	frameTaskLookup uint8 = iota // PerTaskMap lookup (creates the slot)
	frameHashLookup
	frameArrayLookup
	frameHashUpdate
	frameHashDelete
	frameOutput // perf_event_output to a PerCPURing
)

// Frame prologues: straight-line code before the call that the peephole
// folded in (see matchFrame).
const (
	preNone     uint8 = iota
	preGen            // r0 = task gen; rA = r0; stack[i] = stack[j] = rA
	preKeyReg         // rA = rB<<S + rD + I; stack[i] = rA
	preKeyStack       // rA = stack[b]<<S + rD + I; stack[i] = rA
)

// callFrame is one devirtualized map or perf-output call bound to its
// concrete map, with proven stack slots for its key and value — so the
// verifier's argument proofs rule out every error path and the call runs
// inside a block as a micro-op — and with
// the straight-line code codegen emits around it folded in by the peephole
// (matchFrame): a prologue that computes or spills the key, the constant
// register setup that feeds the call (map handle, key and value pointers,
// size), a conditional branch on R0 that may leave the block, and an
// epilogue that moves R0 into a register, loads a word through the value
// pointer, or adds R0 to an accumulator. run replays every architectural
// effect of those instructions in program order, fixed slots a call site
// lacks writing regZero or regSink instead.
type callFrame struct {
	id     int64
	costNS int64

	helper uint8
	task   *PerTaskMap
	hash   *HashMap
	array  *ArrayMap
	ring   *PerCPURing
	key    int32 // stack index of the 8-byte key
	val    int32 // stack index of the update value or the output sample
	size   int32 // their size in bytes

	frameFold
}

// frameFold is the code matchFrame folds around a frame's call; its zero
// shape (see noFold) folds nothing.
type frameFold struct {
	pre      uint8
	preDst   uint8  // rA
	preBase  uint8  // rB (preKeyReg)
	preAdd   uint8  // rD, regZero when absent
	preShift uint64 // S
	preImm   uint64 // I
	preLoad  int32  // b (preKeyStack)
	preIdx   int32  // i
	preIdx2  int32  // j (preGen)
	preNS    int64  // the task-gen helper's cost (preGen)
	setReg   [3]uint8
	setVal   [3]uint64
	branch   bool
	bop      Op
	bimm     uint64
	movDst   uint8 // movr rX, r0 after the call
	addDst   uint8 // addr rX, r0 after the call
	load     bool  // ldx rY, [rX+off] after the move
	loadDst  uint8
	loadOff  int32
}

// noFold is the fold of a frame straight from frame: setup writes
// zeros to regZero and the epilogue writes regSink.
var noFold = frameFold{preAdd: regZero, setReg: [3]uint8{regZero, regZero, regZero},
	movDst: regSink, addDst: regSink}

// frame binds the call at pc to a callFrame: the analysis proves its map,
// and the verifier admits a map helper only on a map type it has a frame
// for and only with exact stack slots for its pointer arguments. It
// returns nil only where that proof is missing, which compileInsn reports
// as an instruction no proof covers.
func (cc *compiler) frame(pc int) *callFrame {
	st := &cc.a.states[pc]
	id := cc.p.Insns[pc].Imm
	spec, known := HelperByID(id)
	m := cc.constMap(st, R1)
	if !known || m == nil {
		return nil
	}
	f := &callFrame{id: id, costNS: spec.CostNS, frameFold: noFold}
	var ok bool
	switch id {
	case HelperMapLookup, HelperMapUpdate, HelperMapDelete:
		var key int
		if key, ok = cc.stackArgConst(st, R2, m.KeySize()); !ok {
			return nil
		}
		f.key = int32(key)
	case HelperPerfOutput:
		size, isConst := scalarConst(st, R3)
		if f.ring, ok = m.(*PerCPURing); !ok || !isConst || size <= 0 {
			return nil
		}
		val, exact := cc.stackArgConst(st, R2, int(size))
		if !exact {
			return nil
		}
		f.helper, f.val, f.size = frameOutput, int32(val), int32(size)
		f.costNS += size / 16
		return f
	default:
		return nil
	}
	switch mm := m.(type) {
	case *PerTaskMap:
		f.task, f.helper = mm, frameTaskLookup
		ok = id == HelperMapLookup
	case *ArrayMap:
		f.array, f.helper = mm, frameArrayLookup
		ok = id == HelperMapLookup
	case *HashMap:
		f.hash = mm
		switch id {
		case HelperMapLookup:
			f.helper = frameHashLookup
		case HelperMapDelete:
			f.helper = frameHashDelete
		case HelperMapUpdate:
			f.helper, f.size = frameHashUpdate, int32(mm.valueSize)
			val, exact := cc.stackArgConst(st, R3, mm.valueSize)
			f.val, ok = int32(val), exact
		}
	default:
		ok = false
	}
	if !ok {
		return nil
	}
	return f
}

// run executes the frame: prologue, setup, the helper on its concrete map,
// then the branch — reporting true when it is taken, so the block leaves —
// and the epilogue. The table lookups inline here (scripts/check.sh lint's
// maptable_inlined step).
func (f *callFrame) run(ec *execState) bool {
	switch f.pre {
	case preGen:
		g := ec.task.Gen()
		ec.regs[R0] = g
		ec.regs[f.preDst&regMask] = g
		PutU64(ec.stack[f.preIdx:f.preIdx+8], g)
		PutU64(ec.stack[f.preIdx2:f.preIdx2+8], g)
		ec.helperNS += f.preNS
	case preKeyReg:
		k := ec.regs[f.preBase&regMask]<<f.preShift + ec.regs[f.preAdd&regMask] + f.preImm
		ec.regs[f.preDst&regMask] = k
		PutU64(ec.stack[f.preIdx:f.preIdx+8], k)
	case preKeyStack:
		k := U64(ec.stack[f.preLoad:f.preLoad+8])<<f.preShift + ec.regs[f.preAdd&regMask] + f.preImm
		ec.regs[f.preDst&regMask] = k
		PutU64(ec.stack[f.preIdx:f.preIdx+8], k)
	}
	ec.regs[f.setReg[0]&regMask] = f.setVal[0]
	ec.regs[f.setReg[1]&regMask] = f.setVal[1]
	ec.regs[f.setReg[2]&regMask] = f.setVal[2]

	var r0 uint64
	var v []byte
	switch f.helper {
	case frameTaskLookup:
		k := U64(ec.stack[f.key : f.key+8])
		if v = f.task.t.lookup(k); v == nil {
			v = f.task.create(k)
		}
		r0 = ec.registerObject(v)
	case frameHashLookup:
		if v = f.hash.t.lookup(U64(ec.stack[f.key : f.key+8])); v != nil {
			r0 = ec.registerObject(v)
		}
	case frameArrayLookup:
		if i := U64(ec.stack[f.key : f.key+8]); i < uint64(len(f.array.values)) {
			v = f.array.values[i]
			r0 = ec.registerObject(v)
		}
	case frameHashUpdate:
		if f.hash.update(U64(ec.stack[f.key:f.key+8]), ec.stack[f.val:f.val+f.size]) != nil {
			r0 = ^uint64(0)
		}
	case frameHashDelete:
		if f.hash.delete(U64(ec.stack[f.key : f.key+8])) {
			r0 = 1
		}
	case frameOutput:
		f.ring.SubmitFrom(ec.task.CPU(), ec.stack[f.val:f.val+f.size])
		if w := ec.task.Emit(kernel.EvSubmit); w != nil {
			noteSample(w, ec.stack[f.val:f.val+f.size])
		}
	}
	ec.regs[R0] = r0
	ec.helperNS += f.costNS
	if w := ec.task.Emit(kernel.EvHelperCall); w != nil {
		noteCall(w, ec, f.id)
	}
	if f.branch && condTrue(f.bop, r0, f.bimm) {
		return true
	}
	ec.regs[f.movDst&regMask] = r0
	ec.regs[f.addDst&regMask] += r0
	if f.load {
		ec.regs[f.loadDst&regMask] = U64(v[f.loadOff : f.loadOff+8])
	}
	return false
}

// fuse turns every maximal run of micro-ops — consecutive pcs, cut at
// terminators and at jump targets — into one block in the run's head slot,
// so every predecessor (fall-through or jump) enters the block there. A run
// of one instruction is a block like any other: block.run is the only
// native implementation of the instruction set. The run's micro-ops are
// peephole-combined into pattern super-ops first, so one dispatched op can
// retire several instructions; instruction accounting goes by pc, not by
// op count. It returns the number of micro-ops in all the blocks.
func (cc *compiler) fuse() (ops int) {
	for pc := 0; pc < len(cc.fns); {
		run := cc.run(pc)
		if len(run) == 0 {
			pc++
			continue
		}
		b := &block{ops: cc.peephole(run), fns: cc.fns, head: pc, next: pc + len(run)}
		ops += len(b.ops)
		cc.fns[pc] = b.run
		pc = b.next
	}
	return ops
}

// run returns the micro-ops of the maximal run starting at pc (empty when
// pc holds a terminator or no code). compileInsn refused any micro-op
// instruction with no successor, so a run never reaches the last pc, and a
// pc the analysis never reached ends a run: no run enters it, so the block
// before it always leaves through its branch.
func (cc *compiler) run(pc int) []microOp {
	end := pc
	for end < len(cc.fns) && cc.fns[end] == nil && cc.a.Reached(end) && (end == pc || !cc.isTarget[end]) {
		end++
	}
	return cc.ops[pc:end]
}

// microKind discriminates pre-decoded block micro-ops. Single-insn
// kinds are exactly one program instruction with operands fully resolved;
// the pattern super-ops below the marker retire a short idiomatic
// instruction sequence (codegen emits the same shapes over and over) in
// one dispatch, replaying every architectural side effect of the original
// sequence bit-for-bit. A kind's number is what the Collector dump prints
// (collectors_test.go), so a retired kind leaves a blank gap and the dumps
// of two trees stay comparable.
type microKind uint8

const (
	muMovImm microKind = iota // dst = imm (also LoadMapPtr: imm pre-tagged)
	muMovReg                  // dst = src

	muAddImm
	muAddReg
	muSubImm
	muSubReg
	_ // 6
	muMulReg
	_ // 8
	muDivReg
	_ // 10
	_ // 11
	_ // 12
	_ // 13
	_ // 14
	_ // 15
	_ // 16
	_ // 17
	muLshImm
	_ // 19
	muRshImm
	_ // 21
	_ // 22
	_ // 23
	_ // 24

	muPtrAddImm // dst = ptr(dst) + int64(imm), delta pre-negated for Sub
	_           // 26
	_           // 27

	muLoadStackExact // dst = stack[idx]
	_                // 29
	muLoadObjDyn     // dst = obj(src)[addr(src)+idx]
	muStoreImmExact  // stack[idx] = imm
	_                // 32
	muStoreImmObj    // obj(base)[addr(base)+idx] = imm  (base in dst)
	muStoreRegExact  // stack[idx] = src
	_                // 35
	muStoreRegObj    // obj(base)[addr(base)+idx] = src

	// Pure helper calls. The verifier admits only helpers that exist, and
	// Pure helpers emit no event, so these fuse into blocks with no event
	// or fault plumbing; imm carries the helper's CostNS.
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
	muCallFrame       // a map call with the code around it, see matchFrame

	// First-pass super-ops for the I/O probe reads, see matchArgCallStore.
	muIOACStore // r1 = imm; r0 = task ioac field imm; stack[idx] = r0; +idx2 ns
	muSockStore // r1 = imm; r0 = tcp_sock field imm; stack[idx] = r0; +idx2 ns

	// Third-pass super-ops: runs of earlier super-ops (see matchRuns).
	muLoadObjStoreRun // imm muLoadObjStore ops over adjacent words
	muDeltaObjRun     // imm muDeltaObjStore ops over adjacent words
	muArgLadder       // a guarded tracepoint-argument copy, see matchLadder

	// muHelperCall runs a callFrame (fn) that matchFrame did not widen.
	// The verifier's argument proofs make a frame fault-free, so the call
	// does not end the block.
	muHelperCall
)

// microOp is one pre-decoded instruction — or, for pattern super-ops, a
// short fused sequence. Scalar ops fit the first 24 bytes; fn is only
// set for muHelperCall and muCallFrame, and reports whether a conditional
// branch folded into it was taken (idx and idx2 then say where to and
// what it retired, as for muJccImm).
type microOp struct {
	kind        microKind
	dst, src, x uint8
	idx         int32  // resolved stack index, or load/store offset
	idx2        int32  // second resolved index / count / helper cost
	imm         uint64 // immediate / pre-computed constant
	fn          func(*execState) bool
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
	case OpMulReg:
		return muMulReg, true
	case OpDivReg:
		return muDivReg, true
	case OpLshImm:
		return muLshImm, true
	case OpRshImm:
		return muRshImm, true
	}
	return 0, false
}

// callMicro maps a pure helper call to its micro kind. Impure helpers
// (maps and perf output) need trace recording and object registration;
// they bind to a callFrame.
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

// ptrALU reports whether a proves that the ALU instruction in at pc
// operates on a pointer destination. Code for it dispatches on this static
// fact rather than on the value's runtime tag bits: a scalar whose bits
// happen to fall in the pointer-tagged range must still take the evalALU
// path, or scalar semantics would silently change at 1<<63. The verifier
// guarantees the kind of a register at a given pc is the same on every
// feasible path (kind mismatches join to uninit, which any use rejects),
// so the fact is well-defined.
func ptrALU(a *Analysis, pc int, in Insn) bool {
	if !isALU(in.Op) || in.Op == OpMovImm || in.Op == OpMovReg || !a.Reached(pc) {
		return false
	}
	k := a.states[pc].regs[in.Dst].kind
	return k == rkPtrStack || k == rkPtrMapValue
}

// microFor pre-decodes one instruction into a micro-op with its operands
// fully resolved, mirroring the interpreter's semantics for that
// instruction exactly. It reports false — never for a verified program —
// for a helper call that binds no callFrame, a memory access whose base the
// analysis did not prove or an opcode with no template.
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

	case isJump(in.Op):
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
		f := cc.frame(pc)
		if f == nil {
			return microOp{}, false
		}
		if cc.frames == nil {
			cc.frames = make([]*callFrame, len(cc.p.Insns))
		}
		cc.frames[pc] = f
		return microOp{kind: muHelperCall, fn: f.run, imm: uint64(pc)}, true

	case isALU(in.Op):
		if ptrALU(cc.a, pc, in) {
			if isRegSrc(in.Op) {
				return microOp{}, false // only an immediate moves a pointer
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
		case memObjDyn:
			return microOp{kind: muLoadObjDyn, dst: uint8(in.Dst), src: uint8(in.Src), idx: in.Off}, true
		}
		return microOp{}, false

	case in.Op == OpStoreImm:
		m := cc.resolveMem(pc, in.Dst, in.Off)
		switch m.kind {
		case memStackExact:
			return microOp{kind: muStoreImmExact, idx: int32(m.idx), imm: uint64(in.Imm)}, true
		case memObjDyn:
			return microOp{kind: muStoreImmObj, dst: uint8(in.Dst), idx: in.Off, imm: uint64(in.Imm)}, true
		}
		return microOp{}, false

	case in.Op == OpStore:
		m := cc.resolveMem(pc, in.Dst, in.Off)
		switch m.kind {
		case memStackExact:
			return microOp{kind: muStoreRegExact, src: uint8(in.Src), idx: int32(m.idx)}, true
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
func (cc *compiler) peephole(ops []microOp) []microOp {
	for _, match := range passes {
		ops = cc.rewrite(ops, match)
	}
	return ops
}

// passes is the peephole pass list, applied in order. A later pass matches
// super-ops an earlier one produced: a whole counter probe is three
// counter-read ops plus the normalization super-op, and the END-marker
// delta quad starts with a load the first pass could not see past.
// The third folds runs of identical super-ops and the feature-argument
// guard ladder into one op each. Only the second needs the compiler: it
// rebuilds map calls as callFrames.
var passes = [...]func(*compiler, []microOp) (microOp, int){
	func(_ *compiler, w []microOp) (microOp, int) { return matchPattern(w) },
	(*compiler).matchPattern2,
	func(_ *compiler, w []microOp) (microOp, int) { return matchRuns(w) },
}

// rewrite applies match greedily left to right, copying unmatched ops.
func (cc *compiler) rewrite(ops []microOp, match func(*compiler, []microOp) (microOp, int)) []microOp {
	out := make([]microOp, 0, len(ops))
	for i := 0; i < len(ops); {
		if op, n := match(cc, ops[i:]); n > 0 {
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
	if op, n := matchArgCallStore(w); n > 0 {
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

func (cc *compiler) matchPattern2(w []microOp) (microOp, int) {
	if op, n := cc.matchFrame(w); n > 0 {
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
	return microOp{}, 0
}

// matchFrame folds the code codegen emits around a map or perf-output call
// into the call's callFrame, so the whole sequence is one dispatch and the
// body binds to the concrete map with its setup in place (rather than a
// setup closure wrapping a body closure). In order, all but the call
// optional, at least one besides it:
//
//	prologue, one of
//	  call get_task_gen; movr rA, r0; stx [fp-I], rA [; stx [fp-J], rA]
//	  (movr rA, rB | ldx rA, [fp-B]); lsh rA, S [; addr rA, rD] [; add rA, I]; stx [fp-K], rA
//	up to three mov rX, imm (map handle, folded frame pointers, size)
//	the call
//	jcc r0, imm              — leaves the block when taken
//	movr rX, r0 [; ldx rY, [rX+off]] | addr rX, r0
//
// That is the Collector's shared prologue (the depth-slot lookup keyed by
// task generation), its entry-key sequences (gen<<8 | depth, adjusted) with
// the entries-map lookup, update or delete they feed, and the null checks
// and pointer moves after them. The load after the move is folded only
// behind `jeq r0, 0`, which proves the value pointer non-null, and rD must
// differ from rA so the key reads rD before the write.
func (cc *compiler) matchFrame(w []microOp) (microOp, int) {
	p := noFold
	i := 0
	switch {
	case len(w) >= 3 && w[0].kind == muCallGetTaskGen &&
		w[1].kind == muMovReg && w[1].src == uint8(R0) &&
		w[2].kind == muStoreRegExact && w[2].src == w[1].dst:
		p.pre, p.preNS, p.preDst = preGen, int64(w[0].imm), w[1].dst
		p.preIdx, p.preIdx2, i = w[2].idx, w[2].idx, 3
		if len(w) > 3 && w[3].kind == muStoreRegExact && w[3].src == w[1].dst {
			p.preIdx2, i = w[3].idx, 4
		}
	case len(w) >= 3 && (w[0].kind == muMovReg || w[0].kind == muLoadStackExact) &&
		w[1].kind == muLshImm && w[1].dst == w[0].dst:
		a := w[0].dst
		p.pre, p.preDst, p.preShift = preKeyReg, a, w[1].imm&63
		if w[0].kind == muMovReg {
			p.preBase = w[0].src
		} else {
			p.pre, p.preLoad = preKeyStack, w[0].idx
		}
		i = 2
		if i < len(w) && w[i].kind == muAddReg && w[i].dst == a && w[i].src != a {
			p.preAdd = w[i].src
			i++
		}
		if i < len(w) && w[i].kind == muAddImm && w[i].dst == a {
			p.preImm = w[i].imm
			i++
		}
		if i >= len(w) || w[i].kind != muStoreRegExact || w[i].src != a {
			p, i = noFold, 0
			break
		}
		p.preIdx = w[i].idx
		i++
	}
	set := 0
	for ; set < 3 && i < len(w) && w[i].kind == muMovImm; set++ {
		i++
	}
	if i >= len(w) || w[i].kind != muHelperCall || cc.frames == nil || cc.frames[w[i].imm] == nil {
		return microOp{}, 0
	}
	f := cc.frames[w[i].imm]
	for s := 0; s < set; s++ {
		p.setReg[s], p.setVal[s] = w[i-set+s].dst, w[i-set+s].imm
	}
	op := microOp{kind: muCallFrame, imm: w[i].imm, fn: w[i].fn}
	i++
	if i < len(w) && w[i].kind == muJccImm && w[i].dst == uint8(R0) {
		p.branch, p.bop, p.bimm = true, Op(w[i].x), w[i].imm
		op.idx, op.idx2 = w[i].idx, w[i].idx2
		i++
	}
	switch {
	case i < len(w) && w[i].kind == muMovReg && w[i].src == uint8(R0):
		p.movDst = w[i].dst
		i++
		lookup := f.helper == frameTaskLookup || f.helper == frameHashLookup || f.helper == frameArrayLookup
		if lookup && p.branch && p.bop == OpJeqImm && p.bimm == 0 &&
			i < len(w) && w[i].kind == muLoadObjDyn && w[i].src == p.movDst {
			p.load, p.loadDst, p.loadOff = true, w[i].dst, w[i].idx
			i++
		}
	case i < len(w) && w[i].kind == muAddReg && w[i].src == uint8(R0) && w[i].dst != uint8(R0):
		p.addDst = w[i].dst
		i++
	}
	if i == 1 {
		return microOp{}, 0
	}
	// Widen the call's own frame in place: the op that ran it unwidened
	// is dropped, and its run method value is reused.
	f.frameFold = p
	return op, i
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

// matchArgCallStore recognizes mov r1, I; call H; stx [fp-D], r0 for the
// helpers that read one field selected by r1: get_tracepoint_arg — how
// every tracepoint argument lands in the frame — and the task I/O and
// socket probes. The selector goes in imm, the helper cost in idx2 and the
// spill slot in idx.
func matchArgCallStore(w []microOp) (microOp, int) {
	if len(w) < 3 ||
		w[0].kind != muMovImm || w[0].dst != uint8(R1) ||
		w[2].kind != muStoreRegExact || w[2].src != uint8(R0) {
		return microOp{}, 0
	}
	var k microKind
	switch w[1].kind {
	case muCallGetArg:
		k = muGetArgStore
	case muCallReadIOAC:
		k = muIOACStore
	case muCallReadSock:
		k = muSockStore
	default:
		return microOp{}, 0
	}
	return microOp{kind: k, imm: w[0].imm,
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

// matchRuns is the third pass: it folds runs of identical super-ops over
// adjacent words and the feature-argument guard ladder.
func matchRuns(w []microOp) (microOp, int) {
	if op, n := matchCopyRun(w); n > 0 {
		return op, n
	}
	if op, n := matchDeltaRun(w); n > 0 {
		return op, n
	}
	return matchLadder(w)
}

// matchCopyRun recognizes ≥2 muLoadObjStore ops — FEATURES' metric copies
// from the entry into the sample — that read adjacent words through one
// base register and spill them to adjacent stack slots through one scratch
// register (not the base, which the first copy would otherwise move). imm
// is the count; the scratch register ends holding the last word.
func matchCopyRun(w []microOp) (microOp, int) {
	n := 0
	for n < len(w) && w[n].kind == muLoadObjStore &&
		w[n].src == w[0].src && w[n].x == w[0].x &&
		w[n].idx == w[0].idx+int32(8*n) && w[n].idx2 == w[0].idx2+int32(8*n) {
		n++
	}
	if n < 2 || w[0].x == w[0].src {
		return microOp{}, 0
	}
	return microOp{kind: muLoadObjStoreRun, src: w[0].src, x: w[0].x,
		idx: w[0].idx, idx2: w[0].idx2, imm: uint64(n)}, n
}

// matchDeltaRun recognizes ≥2 muDeltaObjStore ops — END's metric deltas —
// on one register triple over adjacent entry words and adjacent stack
// slots. imm is the count; the registers end as the last delta left them.
func matchDeltaRun(w []microOp) (microOp, int) {
	n := 0
	for n < len(w) && w[n].kind == muDeltaObjStore &&
		w[n].dst == w[0].dst && w[n].src == w[0].src && w[n].x == w[0].x &&
		w[n].idx == w[0].idx+int32(8*n) && w[n].idx2 == w[0].idx2+int32(8*n) {
		n++
	}
	if n < 2 {
		return microOp{}, 0
	}
	return microOp{kind: muDeltaObjRun, dst: w[0].dst, src: w[0].src, x: w[0].x,
		idx: w[0].idx, idx2: w[0].idx2, imm: uint64(n)}, n
}

// matchLadder recognizes FEATURES' unrolled feature copy: ≥2 rungs of
//
//	jcc rN, I+j, out; (mov r1, A+j; call get_tracepoint_arg; stx [fp-(S+8j)], r0)
//
// — a branch muJccImm and a muGetArgStore per rung, rung j's branch 4
// instructions after rung j-1's — leaving for the same target at whichever
// rung the guard first holds. rN must not be r0 or r1, which the rungs
// write. Operands pack into the op: dst rN, x the opcode, idx the target,
// idx2 the pc after the first branch, src the helper cost, and imm the
// rung count, I, A and S in 16 bits each.
func matchLadder(w []microOp) (microOp, int) {
	if len(w) < 2 || w[0].kind != muJccImm || w[1].kind != muGetArgStore {
		return microOp{}, 0
	}
	g, a := w[0], w[1]
	if g.dst == uint8(R0) || g.dst == uint8(R1) || g.imm > 0xffff ||
		a.imm > 0xffff || a.idx < 0 || a.idx > 0xffff || a.idx2 < 0 || a.idx2 > 0xff {
		return microOp{}, 0
	}
	n := 0
	for 2*n+1 < len(w) && n < 0xffff {
		j, a2 := w[2*n], w[2*n+1]
		if j.kind != muJccImm || j.dst != g.dst || j.x != g.x || j.idx != g.idx ||
			j.imm != g.imm+uint64(n) || j.idx2 != g.idx2+int32(4*n) ||
			a2.kind != muGetArgStore || a2.imm != a.imm+uint64(n) ||
			a2.idx != a.idx+int32(8*n) || a2.idx2 != a.idx2 {
			break
		}
		n++
	}
	if n < 2 {
		return microOp{}, 0
	}
	return microOp{kind: muArgLadder, dst: g.dst, x: g.x, src: uint8(a.idx2),
		idx: g.idx, idx2: g.idx2,
		imm: uint64(n)<<48 | g.imm<<32 | a.imm<<16 | uint64(a.idx)}, 2 * n
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
		case muMulReg:
			ec.regs[op.dst&regMask] *= ec.regs[op.src&regMask]
		case muDivReg:
			if b := ec.regs[op.src&regMask]; b == 0 {
				ec.regs[op.dst&regMask] = 0
			} else {
				ec.regs[op.dst&regMask] /= b
			}
		case muLshImm:
			ec.regs[op.dst&regMask] <<= op.imm & 63
		case muRshImm:
			ec.regs[op.dst&regMask] >>= op.imm & 63

		case muPtrAddImm:
			d := ec.regs[op.dst&regMask]
			ec.regs[op.dst&regMask] = mkPtr(ptrObj(d), uint32(int64(ptrAddr(d))+int64(op.imm)))

		case muLoadStackExact:
			ec.regs[op.dst&regMask] = U64(ec.stack[op.idx : op.idx+8])
		case muLoadObjDyn:
			v := ec.regs[op.src&regMask]
			b := ec.objects[ptrObj(v)-1]
			a := int32(ptrAddr(v)) + op.idx
			ec.regs[op.dst&regMask] = U64(b[a : a+8])
		case muStoreImmExact:
			PutU64(ec.stack[op.idx:op.idx+8], op.imm)
		case muStoreImmObj:
			v := ec.regs[op.dst&regMask]
			b := ec.objects[ptrObj(v)-1]
			a := int32(ptrAddr(v)) + op.idx
			PutU64(b[a:a+8], op.imm)
		case muStoreRegExact:
			PutU64(ec.stack[op.idx:op.idx+8], ec.regs[op.src&regMask])
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

		case muLoadObjStoreRun:
			v := ec.regs[op.src&regMask]
			b := ec.objects[ptrObj(v)-1]
			a := int32(ptrAddr(v)) + op.idx2
			var x uint64
			for k := int32(0); k < int32(op.imm)*8; k += 8 {
				x = U64(b[a+k : a+k+8])
				PutU64(ec.stack[op.idx+k:op.idx+k+8], x)
			}
			ec.regs[op.x&regMask] = x
		case muDeltaObjRun:
			v := ec.regs[op.src&regMask]
			b := ec.objects[ptrObj(v)-1]
			a := int32(ptrAddr(v)) + op.idx
			var va, vb uint64
			for k := int32(0); k < int32(op.imm)*8; k += 8 {
				va = U64(ec.stack[op.idx2+k : op.idx2+k+8])
				vb = U64(b[a+k : a+k+8])
				PutU64(b[a+k:a+k+8], va-vb)
			}
			ec.regs[op.x&regMask] = vb
			ec.regs[op.dst&regMask] = va - vb
		case muArgLadder:
			g := ec.regs[op.dst&regMask]
			n := int(op.imm >> 48)
			bound := op.imm >> 32 & 0xffff
			arg := op.imm >> 16 & 0xffff
			at := int32(op.imm & 0xffff)
			for j := 0; j < n; j++ {
				if condTrue(Op(op.x), g, bound+uint64(j)) {
					ec.executed += int(op.idx2) + 4*j - blk.head
					return blk.fns[op.idx]
				}
				i := arg + uint64(j)
				var v uint64
				if i < uint64(len(ec.args)) {
					v = ec.args[i]
				}
				ec.regs[R1] = i
				ec.regs[R0] = v
				PutU64(ec.stack[at+int32(8*j):at+int32(8*j)+8], v)
				ec.helperNS += int64(op.src)
			}
		case muIOACStore:
			ec.regs[R1] = op.imm
			v := readIOACHelper(ec.task, op.imm)
			ec.regs[R0] = v
			PutU64(ec.stack[op.idx:op.idx+8], v)
			ec.helperNS += int64(op.idx2)
		case muSockStore:
			ec.regs[R1] = op.imm
			v := readSockHelper(ec.task, op.imm)
			ec.regs[R0] = v
			PutU64(ec.stack[op.idx:op.idx+8], v)
			ec.helperNS += int64(op.idx2)

		case muHelperCall, muCallFrame:
			if op.fn(ec) {
				ec.executed += int(op.idx2) - blk.head
				return blk.fns[op.idx]
			}
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
