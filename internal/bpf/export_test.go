package bpf

import (
	"fmt"
	"slices"
	"strings"

	"tscout/internal/kernel"
)

// PatternNames lists the pattern super-op kinds in declaration order, from
// the first one up to (not including) muHelperCall.
var PatternNames = [muHelperCall - muStoreZeroRun]string{
	"muStoreZeroRun", "muLoadObjStore", "muGetArgStore", "muReadCounterLoad",
	"muReadCounterStore", "muScaleStore", "muDeltaObjStore",
	"muAddImmObjStore", "muProbeScaleStore", "muCallFrame",
	"muIOACStore", "muSockStore",
	"muLoadObjStoreRun", "muDeltaObjRun", "muArgLadder",
}

// DecodedKind is one micro-op kind microFor can return.
type DecodedKind struct {
	Kind microKind
	Name string
}

// DecodedKinds lists every micro-op kind microFor can return — what one
// instruction decodes to before peephole — in declaration order. A kind
// microFor gains or loses joins or leaves the list with it.
var DecodedKinds = [...]DecodedKind{
	{muMovImm, "muMovImm"}, {muMovReg, "muMovReg"},
	{muAddImm, "muAddImm"}, {muAddReg, "muAddReg"}, {muSubImm, "muSubImm"},
	{muSubReg, "muSubReg"}, {muMulReg, "muMulReg"}, {muDivReg, "muDivReg"},
	{muLshImm, "muLshImm"}, {muRshImm, "muRshImm"},
	{muPtrAddImm, "muPtrAddImm"},
	{muLoadStackExact, "muLoadStackExact"}, {muLoadObjDyn, "muLoadObjDyn"},
	{muStoreImmExact, "muStoreImmExact"}, {muStoreImmObj, "muStoreImmObj"},
	{muStoreRegExact, "muStoreRegExact"}, {muStoreRegObj, "muStoreRegObj"},
	{muCallGetPID, "muCallGetPID"}, {muCallGetTaskGen, "muCallGetTaskGen"},
	{muCallGetCPU, "muCallGetCPU"}, {muCallKtime, "muCallKtime"},
	{muCallGetArg, "muCallGetArg"}, {muCallReadCounter, "muCallReadCounter"},
	{muCallReadIOAC, "muCallReadIOAC"}, {muCallReadSock, "muCallReadSock"},
	{muJccImm, "muJccImm"}, {muJccReg, "muJccReg"},
	{muHelperCall, "muHelperCall"},
}

// DecodeCounts decodes p the way Load compiles it and adds to counts[i]
// how many of p's reached instructions decode to DecodedKinds[i]. It
// returns Load's error if p does not load, and an error naming any kind
// an instruction decodes to that DecodedKinds lacks.
func DecodeCounts(p *Program, counts *[len(DecodedKinds)]int) error {
	cc, err := decodeProgram(p)
	if err != nil {
		return err
	}
	for pc := range cc.ops {
		if cc.fns[pc] != nil || !cc.a.Reached(pc) {
			continue
		}
		i := slices.IndexFunc(DecodedKinds[:], func(k DecodedKind) bool { return k.Kind == cc.ops[pc].kind })
		if i < 0 {
			return fmt.Errorf("insn %d (%s) decodes to micro kind %d, which DecodedKinds lacks", pc, p.Insns[pc], cc.ops[pc].kind)
		}
		counts[i]++
	}
	return nil
}

// decodeProgram analyzes p and decodes it the way Load compiles it, for
// the helpers below that look inside the compiled form.
func decodeProgram(p *Program) (*compiler, error) {
	a, err := Analyze(p, 0)
	if err != nil {
		return nil, err
	}
	return (&LoadedProgram{prog: p}).decode(a)
}

// PatternCounts decodes p the way Load compiles it and adds to counts, per
// pattern super-op kind, how many each peephole pass produced in p's
// blocks — a super-op counts in the pass that makes it, because a later
// pass may go on to absorb it into a larger one. It returns Load's error if
// p does not load.
func PatternCounts(p *Program, counts *[len(PatternNames)]int) error {
	cc, err := decodeProgram(p)
	if err != nil {
		return err
	}
	for pc := 0; pc < len(cc.fns); {
		run := cc.run(pc)
		if len(run) == 0 {
			pc++
			continue
		}
		ops := run
		for _, match := range passes {
			ops = cc.rewrite(ops, match)
			for _, op := range ops {
				if op.kind >= muStoreZeroRun && op.kind < muHelperCall {
					counts[op.kind-muStoreZeroRun]++
				}
			}
		}
		pc += len(run)
	}
	return nil
}

// FramedCalls decodes p the way Load compiles it and returns its number of
// impure helper call sites and how many of them peephole folded into a
// muCallFrame. A call that matchFrame does not fold stays a muHelperCall
// and counts only in calls.
func FramedCalls(p *Program) (calls, framed int, err error) {
	cc, err := decodeProgram(p)
	if err != nil {
		return 0, 0, err
	}
	for _, in := range cc.p.Insns {
		if in.Op != OpCall {
			continue
		}
		if spec, _ := HelperByID(in.Imm); !spec.Pure {
			calls++
		}
	}
	for pc := 0; pc < len(cc.fns); {
		run := cc.run(pc)
		if len(run) == 0 {
			pc++
			continue
		}
		for _, op := range cc.peephole(run) {
			if op.kind == muCallFrame {
				framed++
			}
		}
		pc += len(run)
	}
	return calls, framed, nil
}

// MapCall is one helper call site and the map its R1 is proven to hold.
type MapCall struct {
	ID  int64
	Map Map
}

// MapCalls analyzes p and returns every reached helper call that takes a
// map, with the map the analysis binds it to.
func MapCalls(p *Program) ([]MapCall, error) {
	a, err := Analyze(p, 0)
	if err != nil {
		return nil, err
	}
	var out []MapCall
	for pc, in := range p.Insns {
		if in.Op != OpCall || !a.Reached(pc) {
			continue
		}
		if r1 := a.states[pc].regs[R1]; r1.kind == rkConstMap {
			out = append(out, MapCall{ID: in.Imm, Map: p.Maps[r1.mapIdx]})
		}
	}
	return out, nil
}

// peepholeStarts is peephole for the run that starts at head, also
// returning the pc of each output op's first instruction.
func (cc *compiler) peepholeStarts(run []microOp, head int) ([]microOp, []int) {
	ops, starts := run, make([]int, len(run))
	for i := range starts {
		starts[i] = head + i
	}
	for _, match := range passes {
		var out []microOp
		var outStarts []int
		for i := 0; i < len(ops); {
			op, n := match(cc, ops[i:])
			if n == 0 {
				op, n = ops[i], 1
			}
			out, outStarts = append(out, op), append(outStarts, starts[i])
			i += n
		}
		ops, starts = out, outStarts
	}
	return ops, starts
}

// DispatchedOps runs p once the way Load would compile it, except that
// every micro-op after peephole is a block of its own, and returns how
// many micro-ops the run dispatched beside its R0 and virtual cost (which
// a block charges by pc, so splitting changes neither).
func DispatchedOps(p *Program, task *kernel.Task, args []uint64) (ops int, r0 uint64, costNS int64, err error) {
	cc, err := decodeProgram(p)
	if err != nil {
		return 0, 0, 0, err
	}
	for pc := 0; pc < len(cc.fns); {
		run := cc.run(pc)
		if len(run) == 0 {
			pc++
			continue
		}
		fused, starts := cc.peepholeStarts(run, pc)
		for j, op := range fused {
			next := pc + len(run)
			if j+1 < len(fused) {
				next = starts[j+1]
			}
			b := &block{ops: []microOp{op}, fns: cc.fns, head: starts[j], next: next}
			cc.fns[starts[j]] = func(ec *execState) copFn {
				ops++
				return b.run(ec)
			}
		}
		pc += len(run)
	}
	ec := &execState{task: task, args: args}
	ec.regs[R10] = mkPtr(0, StackSize)
	for f := cc.fns[0]; f != nil; {
		f = f(ec)
	}
	return ops, ec.regs[R0], cost(ec.executed, ec.helperNS, task.Kernel().Profile.BPFInsnNS), nil
}

// MicroOps renders what Load compiles p to, pc by pc: every fused block's
// micro-ops after both peephole passes with their resolved operands (a
// closure shows only as present), and "term" for each terminator. Two
// programs with the same rendering compile to the same code. It returns
// Load's error instead if p does not load.
func MicroOps(p *Program) (string, error) {
	cc, err := decodeProgram(p)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for pc := 0; pc < len(cc.fns); {
		run := cc.run(pc)
		if len(run) == 0 {
			fmt.Fprintf(&b, "%d: term\n", pc)
			pc++
			continue
		}
		for _, op := range cc.peephole(run) {
			fmt.Fprintf(&b, "%d: %d %d %d %d %d %d %#x %v\n",
				pc, op.kind, op.dst, op.src, op.x, op.idx, op.idx2, op.imm, op.fn != nil)
		}
		pc += len(run)
	}
	return b.String(), nil
}

// AnalysesAgree runs Analyze and its oracle (verifier_oracle_test.go) on p
// and describes their first disagreement, or returns "".
func AnalysesAgree(p *Program) string { return diffAnalyses(p, 0) }

// Interpreter binds a loaded program to the reference interpreter
// (interp_test.go).
type Interpreter struct {
	lp *LoadedProgram
	// ptrALU[pc] is the per-pc fact the interpreter dispatches ALU
	// instructions on (see ptrALU), taken once from a fresh analysis of
	// the program, since Load keeps none.
	ptrALU []bool
}

// NewInterpreter readies lp's program for RunInterpreted. Its error is
// Analyze's, for a program changed after Load.
func NewInterpreter(lp *LoadedProgram) (*Interpreter, error) {
	a, err := Analyze(lp.prog, 0)
	if err != nil {
		return nil, err
	}
	return interpreterFrom(lp, a), nil
}

// interpreterFrom binds lp to the interpreter with a's pointer-ALU facts.
func interpreterFrom(lp *LoadedProgram, a *Analysis) *Interpreter {
	ip := &Interpreter{lp: lp, ptrALU: make([]bool, len(lp.prog.Insns))}
	for pc, in := range lp.prog.Insns {
		ip.ptrALU[pc] = ptrALU(a, pc, in)
	}
	return ip
}

// RunInterpreted executes the program through the interpreter — the
// reference semantics the differential oracles compare Run against. It
// works on the same maps, and emits on the same kernel event stream, as Run.
func (ip *Interpreter) RunInterpreted(task *kernel.Task, args []uint64) (uint64, int64, error) {
	return ip.runInterp(task, args)
}

// MapFingerprint renders m's contents canonically (compile_test.go's
// mapFingerprint), so two maps can be compared byte for byte. A ring is
// drained by it.
func MapFingerprint(m Map) string { return mapFingerprint(m) }

// Lookup returns the value stored for key (aliasing the internal buffer,
// see the type comment), or nil if absent or the key is the wrong size.
func (h *HashMap) Lookup(key []byte) []byte {
	if len(key) != 8 {
		return nil
	}
	return h.t.lookup(U64(key))
}

// Lookup returns the slot for the task id in key, creating a zeroed slot
// on first access, or nil if the key is the wrong size.
func (p *PerTaskMap) Lookup(key []byte) []byte {
	if len(key) != 8 {
		return nil
	}
	if v := p.t.lookup(U64(key)); v != nil {
		return v
	}
	return p.create(U64(key))
}
