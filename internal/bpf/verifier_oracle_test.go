package bpf

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// This file keeps the abstract interpreter as it was before PR 25 — a
// [StackSize]bool stack-init lattice, a step that takes its in-state by
// value and returns a freshly allocated successor slice, a slice-returning
// CFG walk — as the oracle for the one in verifier.go/analyze.go, which
// tracks stack initialization in a bitset and writes successors into
// caller-owned slots. Both share the register lattice (joinReg, the VReg
// domain) and the error constructor. FuzzAnalyzeDifferential requires
// them to agree on every program: the same verdict (error text and
// VerifyError.PC), the same in-state at every pc and the same
// conditional-edge feasibility. Do not edit this file to make a change
// pass; it is the reference.
//
// One deliberate change to the reference since: the verifier rejects
// every backward jump, so the CFG is a DAG in pc order, and the oracle,
// like Analyze, steps each reached pc once, in pc order, after all its
// predecessors have merged into it — in place of a LIFO worklist with
// widening at loop heads. The first error in pc order is the one reported.
//
// A second deliberate change: a helper call verifies only if the compiler
// can bind it to a callFrame. map_update_elem and map_delete_elem take only
// a hash map (map_lookup_elem still takes any keyed map).
//
// A third: a pointer has one exact offset, not an offset range. Only an
// immediate moves it, within the offset window; pointer ± register is
// rejected; a join of a pointer held at two offsets is uninit (joinReg).

type oracleAnalysis struct {
	states    []oracleState
	condTaken []bool
	condFall  []bool
}

type oracleState struct {
	regs      [numRegs]regState
	stackInit [StackSize]bool
	valid     bool
}

func oracleEntryState() oracleState {
	var s oracleState
	s.valid = true
	s.regs[R10] = regState{kind: rkPtrStack}
	return s
}

// merge joins b into a.
func (a *oracleState) merge(b *oracleState) {
	if !a.valid {
		*a = *b
		return
	}
	for i := range a.regs {
		a.regs[i] = joinReg(a.regs[i], b.regs[i])
	}
	for i := range a.stackInit {
		a.stackInit[i] = a.stackInit[i] && b.stackInit[i]
	}
}

type oracleSucc struct {
	pc    int
	state oracleState
}

func oracleRequireInit(pc int, s *oracleState, r Reg, what string) error {
	if s.regs[r].kind == rkUninit {
		return verr(pc, "%s uses uninitialized r%d", what, r)
	}
	return nil
}

// oracleCheckStack validates an access of size bytes through base (a stack
// pointer at its exact offset) plus the static offset off, with read or
// write semantics per mode.
func oracleCheckStack(pc int, s *oracleState, base regState, off int32, size int, mode stackAccess) error {
	lo := base.off + int64(off)
	if lo < -StackSize || lo > -int64(size) {
		return verr(pc, "stack access at offset %d size %d out of bounds", lo, size)
	}
	if mode == stackWrite {
		idx := int(lo + StackSize)
		for i := 0; i < size; i++ {
			s.stackInit[idx+i] = true
		}
		return nil
	}
	for a := lo; a < lo+int64(size); a++ {
		if !s.stackInit[a+StackSize] {
			return verr(pc, "read of uninitialized stack byte at offset %d", a)
		}
	}
	return nil
}

// oracleCondStates computes the refined taken/fall-through states of a
// conditional jump and whether each edge is feasible. Callers have
// already checked register initialization.
func oracleCondStates(s oracleState, insn Insn) (taken, fall oracleState, feasT, feasF bool, err error) {
	d := s.regs[insn.Dst]
	// Null-check refinement for map-lookup results.
	if d.kind == rkPtrMapValueOrNull && !isRegSrc(insn.Op) && insn.Imm == 0 {
		taken, fall = s, s
		switch insn.Op {
		case OpJeqImm: // taken => ptr == 0 => NULL; fallthrough => non-null
			taken.regs[insn.Dst] = constReg(0)
			fall.regs[insn.Dst] = regState{kind: rkPtrMapValue, mapIdx: d.mapIdx, off: d.off}
		case OpJneImm: // taken => non-null
			taken.regs[insn.Dst] = regState{kind: rkPtrMapValue, mapIdx: d.mapIdx, off: d.off}
			fall.regs[insn.Dst] = constReg(0)
		default:
			return s, s, false, false, verr(-1, "map value pointer compared with non-equality op before null check")
		}
		return taken, fall, true, true, nil
	}
	if d.kind != rkScalar {
		return s, s, false, false, verr(-1, "conditional jump on %s", d.kind)
	}
	var b VReg
	if isRegSrc(insn.Op) {
		if s.regs[insn.Src].kind != rkScalar {
			return s, s, false, false, verr(-1, "register compare on non-scalars")
		}
		b = s.regs[insn.Src].vr
	} else {
		b = vrConst(uint64(insn.Imm))
	}
	rel := relFor(insn.Op)
	ta, tb, okT := vrRefine(rel, d.vr, b)
	fa, fb, okF := vrRefine(negRel(rel), d.vr, b)
	if !okT && !okF {
		// The relation and its negation partition concrete pairs, so both
		// edges cannot be infeasible; degrade to no pruning if refinement
		// ever claims otherwise.
		okT, okF = true, true
		ta, tb, fa, fb = d.vr, b, d.vr, b
	}
	taken, fall = s, s
	if okT {
		taken.regs[insn.Dst].vr = ta
		if isRegSrc(insn.Op) {
			taken.regs[insn.Src].vr = tb
		}
	}
	if okF {
		fall.regs[insn.Dst].vr = fa
		if isRegSrc(insn.Op) {
			fall.regs[insn.Src].vr = fb
		}
	}
	return taken, fall, okT, okF, nil
}

func oracleStep(p *Program, pc int, in oracleState) ([]oracleSucc, error) {
	s := in
	insn := p.Insns[pc]
	next := func() []oracleSucc { return []oracleSucc{{pc + 1, s}} }

	switch {
	case insn.Op == OpExit:
		if s.regs[R0].kind != rkScalar {
			return nil, verr(pc, "exit with R0 %s (must be scalar)", s.regs[R0].kind)
		}
		return nil, nil

	case insn.Op == OpMovImm:
		if insn.Dst == R10 {
			return nil, verr(pc, "write to frame pointer r10")
		}
		s.regs[insn.Dst] = constReg(insn.Imm)
		return next(), nil

	case insn.Op == OpMovReg:
		if insn.Dst == R10 {
			return nil, verr(pc, "write to frame pointer r10")
		}
		if err := oracleRequireInit(pc, &s, insn.Src, "mov"); err != nil {
			return nil, err
		}
		s.regs[insn.Dst] = s.regs[insn.Src]
		return next(), nil

	case isALU(insn.Op):
		if insn.Dst == R10 {
			return nil, verr(pc, "write to frame pointer r10")
		}
		if err := oracleRequireInit(pc, &s, insn.Dst, "alu"); err != nil {
			return nil, err
		}
		var src regState
		if isRegSrc(insn.Op) {
			if err := oracleRequireInit(pc, &s, insn.Src, "alu"); err != nil {
				return nil, err
			}
			src = s.regs[insn.Src]
		} else {
			src = constReg(insn.Imm)
		}
		dst := s.regs[insn.Dst]
		// Pointer arithmetic: ptr +/- immediate, within the offset window.
		if dst.kind == rkPtrStack || dst.kind == rkPtrMapValue {
			switch insn.Op {
			case OpAddImm, OpSubImm:
				delta := insn.Imm
				if insn.Op == OpSubImm {
					if delta == math.MinInt64 {
						return nil, verr(pc, "pointer offset %d moved by %d leaves the offset window", dst.off, delta)
					}
					delta = -delta
				}
				if delta < -offWindow || delta > offWindow ||
					dst.off+delta < -offWindow || dst.off+delta > offWindow {
					return nil, verr(pc, "pointer offset %d moved by %d leaves the offset window", dst.off, delta)
				}
				dst.off += delta
				s.regs[insn.Dst] = dst
				return next(), nil
			case OpAddReg, OpSubReg:
				return nil, verr(pc, "pointer arithmetic with a register (only an immediate moves a pointer)")
			default:
				return nil, verr(pc, "forbidden ALU op on pointer")
			}
		}
		if dst.kind != rkScalar {
			return nil, verr(pc, "alu on %s", dst.kind)
		}
		if src.kind != rkScalar {
			return nil, verr(pc, "alu with %s source", src.kind)
		}
		if insn.Op == OpDivReg && src.vr.IsConst() && src.vr.Const() == 0 {
			return nil, verr(pc, "division by known-zero register")
		}
		s.regs[insn.Dst] = scalarReg(vrTransfer(insn.Op, dst.vr, src.vr))
		return next(), nil

	case insn.Op == OpLoadMapPtr:
		if insn.Dst == R10 {
			return nil, verr(pc, "write to frame pointer r10")
		}
		s.regs[insn.Dst] = regState{kind: rkConstMap, mapIdx: int32(insn.Imm)}
		return next(), nil

	case insn.Op == OpLoad:
		if insn.Dst == R10 {
			return nil, verr(pc, "write to frame pointer r10")
		}
		base := s.regs[insn.Src]
		switch base.kind {
		case rkPtrStack:
			if err := oracleCheckStack(pc, &s, base, insn.Off, 8, stackRead); err != nil {
				return nil, err
			}
		case rkPtrMapValue, rkPtrMapValueOrNull:
			if err := checkMapValueAccess(p, pc, base, insn.Off, 8); err != nil {
				return nil, err
			}
		default:
			return nil, verr(pc, "load through %s", base.kind)
		}
		s.regs[insn.Dst] = unknownScalarReg()
		return next(), nil

	case insn.Op == OpStore, insn.Op == OpStoreImm:
		base := s.regs[insn.Dst]
		if insn.Op == OpStore {
			if err := oracleRequireInit(pc, &s, insn.Src, "store"); err != nil {
				return nil, err
			}
			if s.regs[insn.Src].kind != rkScalar {
				return nil, verr(pc, "storing %s to memory (pointer leak)", s.regs[insn.Src].kind)
			}
		}
		switch base.kind {
		case rkPtrStack:
			if err := oracleCheckStack(pc, &s, base, insn.Off, 8, stackWrite); err != nil {
				return nil, err
			}
		case rkPtrMapValue, rkPtrMapValueOrNull:
			if err := checkMapValueAccess(p, pc, base, insn.Off, 8); err != nil {
				return nil, err
			}
		default:
			return nil, verr(pc, "store through %s", base.kind)
		}
		return next(), nil

	case isJump(insn.Op):
		if err := oracleRequireInit(pc, &s, insn.Dst, "jump"); err != nil {
			return nil, err
		}
		if isRegSrc(insn.Op) {
			if err := oracleRequireInit(pc, &s, insn.Src, "jump"); err != nil {
				return nil, err
			}
		}
		taken, fall, feasT, feasF, err := oracleCondStates(s, insn)
		if err != nil {
			if ve := new(VerifyError); errors.As(err, &ve) {
				ve.PC = pc
			}
			return nil, err
		}
		var outs []oracleSucc
		if feasT {
			outs = append(outs, oracleSucc{pc + 1 + int(insn.Off), taken})
		}
		if feasF {
			outs = append(outs, oracleSucc{pc + 1, fall})
		}
		return outs, nil

	case insn.Op == OpCall:
		spec, _ := HelperByID(insn.Imm)
		argRegs := []Reg{R1, R2, R3, R4, R5}
		var constMap int32 = -1
		var sizedPtr regState
		sizedPtrSeen := false
		for i, kind := range spec.Args {
			r := argRegs[i]
			if err := oracleRequireInit(pc, &s, r, spec.Name); err != nil {
				return nil, err
			}
			a := s.regs[r]
			switch kind {
			case ArgScalar:
				if a.kind != rkScalar {
					return nil, verr(pc, "%s arg %d must be scalar, got %s", spec.Name, i+1, a.kind)
				}
			case ArgConstMap:
				if a.kind != rkConstMap {
					return nil, verr(pc, "%s arg %d must be a map handle, got %s", spec.Name, i+1, a.kind)
				}
				constMap = a.mapIdx
				// Perf output takes a ring, the map helpers anything else.
				_, ring := p.Maps[constMap].(*PerCPURing)
				if output := insn.Imm == HelperPerfOutput; ring != output {
					want := "a keyed map"
					if output {
						want = "a perf ring buffer"
					}
					return nil, verr(pc, "%s arg %d must be %s, got %q", spec.Name, i+1, want, p.Maps[constMap].Name())
				}
				// Update and delete take a hash map.
				if _, hash := p.Maps[constMap].(*HashMap); !hash && (insn.Imm == HelperMapUpdate || insn.Imm == HelperMapDelete) {
					return nil, verr(pc, "%s arg %d must be a hash map, got %q", spec.Name, i+1, p.Maps[constMap].Name())
				}
			case ArgPtrKey, ArgPtrValue:
				if constMap < 0 {
					return nil, verr(pc, "%s arg %d: no preceding map handle", spec.Name, i+1)
				}
				size := p.Maps[constMap].KeySize()
				if kind == ArgPtrValue {
					size = p.Maps[constMap].ValueSize()
				}
				if a.kind != rkPtrStack {
					return nil, verr(pc, "%s arg %d must be a stack pointer, got %s", spec.Name, i+1, a.kind)
				}
				// Every map helper reads its key and value buffers, so
				// every byte must be initialized.
				if err := oracleCheckStack(pc, &s, a, 0, size, stackRead); err != nil {
					return nil, err
				}
			case ArgPtrSized:
				if a.kind != rkPtrStack {
					return nil, verr(pc, "%s arg %d must be a stack pointer, got %s", spec.Name, i+1, a.kind)
				}
				sizedPtr = a
				sizedPtrSeen = true
			case ArgSizeConst:
				if a.kind != rkScalar || !a.vr.IsConst() || int64(a.vr.Const()) <= 0 {
					return nil, verr(pc, "%s arg %d must be a known positive constant size", spec.Name, i+1)
				}
				if !sizedPtrSeen {
					return nil, verr(pc, "%s arg %d: size without preceding pointer", spec.Name, i+1)
				}
				if err := oracleCheckStack(pc, &s, sizedPtr, 0, int(a.vr.Const()), stackRead); err != nil {
					return nil, err
				}
			}
		}
		// Helper calls clobber caller-saved registers.
		for _, r := range argRegs {
			s.regs[r] = regState{kind: rkUninit}
		}
		switch spec.Ret {
		case RetMapValueOrNull:
			if constMap < 0 {
				return nil, verr(pc, "%s returns map value but has no map arg", spec.Name)
			}
			s.regs[R0] = regState{kind: rkPtrMapValueOrNull, mapIdx: constMap}
		default:
			s.regs[R0] = unknownScalarReg()
		}
		return next(), nil
	}
	return nil, verr(pc, "unhandled opcode %v", insn.Op)
}

// oracleAnalyze is Analyze as it was: the same checks in the same order,
// one freshly allocated successor slice per abstract step.
func oracleAnalyze(p *Program, maxInsns int) (*oracleAnalysis, error) {
	if maxInsns <= 0 {
		maxInsns = DefaultMaxInsns
	}
	n := len(p.Insns)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty program", ErrVerification)
	}
	if n > maxInsns {
		return nil, fmt.Errorf("%w: program has %d instructions, limit %d", ErrVerification, n, maxInsns)
	}

	a := &oracleAnalysis{}

	// Structural pass: opcode validity, jump targets, jump direction.
	for pc, in := range p.Insns {
		if in.Op == OpInvalid || opNames[in.Op] == "" {
			return nil, verr(pc, "invalid opcode %d", in.Op)
		}
		if in.Dst >= numRegs || in.Src >= numRegs {
			return nil, verr(pc, "register out of range")
		}
		if isJump(in.Op) {
			tgt := pc + 1 + int(in.Off)
			if tgt < 0 || tgt >= n {
				return nil, verr(pc, "jump target %d out of range", tgt)
			}
			if tgt <= pc {
				return nil, verr(pc, "backward jump")
			}
		}
		switch in.Op {
		case OpLshImm, OpRshImm:
			if in.Imm < 0 || in.Imm >= 64 {
				return nil, verr(pc, "shift amount %d out of range", in.Imm)
			}
		case OpLoadMapPtr:
			if in.Imm < 0 || in.Imm >= int64(len(p.Maps)) {
				return nil, verr(pc, "map index %d out of range (have %d maps)", in.Imm, len(p.Maps))
			}
		case OpCall:
			if _, ok := HelperByID(in.Imm); !ok {
				return nil, verr(pc, "unknown helper %d", in.Imm)
			}
		}
		// Fall-through off the end of the program.
		if pc == n-1 && in.Op != OpExit && !isJump(in.Op) {
			return nil, verr(pc, "control flow falls off the end of the program")
		}
		if isJump(in.Op) && pc == n-1 {
			return nil, verr(pc, "conditional jump cannot be the last instruction")
		}
	}

	// Reachability from instruction 0 over the static CFG. Instructions
	// no path can ever reach are rejected outright, as in real eBPF.
	reach := make([]bool, n)
	stack := []int{0}
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reach[pc] {
			continue
		}
		reach[pc] = true
		stack = append(stack, oracleCfgSuccs(p.Insns[pc], pc)...)
	}
	for pc := range reach {
		if !reach[pc] {
			return nil, verr(pc, "unreachable instruction")
		}
	}

	// Abstract interpretation in pc order: every predecessor of a pc comes
	// before it, so its in-state is final when the pass reaches it.
	a.states = make([]oracleState, n)
	a.states[0] = oracleEntryState()
	for pc := range a.states {
		if !a.states[pc].valid {
			continue
		}
		outs, err := oracleStep(p, pc, a.states[pc])
		if err != nil {
			return nil, err
		}
		for _, o := range outs {
			a.states[o.pc].merge(&o.state)
		}
	}

	// Record conditional-edge feasibility from the final in-states.
	a.condTaken = make([]bool, n)
	a.condFall = make([]bool, n)
	for pc, in := range p.Insns {
		if !isJump(in.Op) || !a.states[pc].valid {
			continue
		}
		_, _, feasT, feasF, err := oracleCondStates(a.states[pc], in)
		if err != nil {
			// oracleStep already accepted this state; this cannot fail.
			feasT, feasF = true, true
		}
		a.condTaken[pc] = feasT
		a.condFall[pc] = feasF
	}
	return a, nil
}

// oracleCfgSuccs returns the static control-flow successors of the instruction
// at pc (no feasibility pruning).
func oracleCfgSuccs(in Insn, pc int) []int {
	switch {
	case in.Op == OpExit:
		return nil
	case isJump(in.Op):
		return []int{pc + 1, pc + 1 + int(in.Off)}
	default:
		return []int{pc + 1}
	}
}

// lattice converts an oracle state to the bitset representation.
func (o *oracleState) lattice() absState {
	s := absState{regs: o.regs, valid: o.valid}
	for i, init := range o.stackInit {
		if init {
			s.stackInit.set(i)
		}
	}
	return s
}

// diffAnalyses runs Analyze and oracleAnalyze on p and describes their
// first disagreement, or returns "" when they agree on the verdict, every
// in-state and every conditional edge.
func diffAnalyses(p *Program, maxInsns int) string {
	a, err := Analyze(p, maxInsns)
	o, oerr := oracleAnalyze(p, maxInsns)
	oerr = withInsn(p, oerr) // Analyze names the failing instruction too
	if (err == nil) != (oerr == nil) {
		return fmt.Sprintf("verdicts differ: Analyze %v, oracle %v", err, oerr)
	}
	if err != nil {
		if err.Error() != oerr.Error() {
			return fmt.Sprintf("errors differ: Analyze %q, oracle %q", err, oerr)
		}
		var ve, ove *VerifyError
		if errors.As(err, &ve) != errors.As(oerr, &ove) || (ve != nil && ve.PC != ove.PC) {
			return fmt.Sprintf("VerifyError differs: Analyze %#v, oracle %#v", ve, ove)
		}
		return ""
	}
	for pc := range p.Insns {
		if got, want := a.states[pc], o.states[pc].lattice(); got != want {
			return fmt.Sprintf("in-state at pc %d (%s) differs:\nAnalyze %+v\noracle  %+v",
				pc, p.Insns[pc], got, want)
		}
		if !isJump(p.Insns[pc].Op) || !a.states[pc].valid {
			continue
		}
		// Analyze keeps no edges: its own condStates, on its own in-state,
		// stands in for the edges its step followed.
		var taken, fall absState
		gotT, gotF, err := condStates(&a.states[pc], p.Insns[pc], &taken, &fall)
		if err != nil {
			return fmt.Sprintf("edges at pc %d (%s): Analyze accepted an in-state condStates rejects: %v",
				pc, p.Insns[pc], err)
		}
		if gotT != o.condTaken[pc] || gotF != o.condFall[pc] {
			return fmt.Sprintf("edges at pc %d (%s): Analyze taken=%v fall=%v, oracle taken=%v fall=%v",
				pc, p.Insns[pc], gotT, gotF, o.condTaken[pc], o.condFall[pc])
		}
	}
	return ""
}

func checkAnalysesAgree(t *testing.T, p *Program) {
	t.Helper()
	if d := diffAnalyses(p, fuzzMaxInsns); d != "" {
		t.Fatalf("Analyze and the oracle disagree: %s\n%s", d, p.Disassemble())
	}
}

// stackJoinRegression is a join whose incoming states differ only in the
// stack: both arms leave every register as the other does, but only one
// initializes the slot read after the join. A merge that narrowed the
// stack-init bits without reporting a change would never re-step the load
// with the narrowed state and accept the program.
func stackJoinRegression() *Program {
	return NewBuilder("analyze/stack-join").
		Call(HelperKtime).
		Jeq(R0, 0, "else").
		Mov(R0, 0).
		StoreImm(R10, -8, 1).
		Jeq(R0, 0, "join").
		Label("else").
		Mov(R0, 0).
		Label("join").
		Load(R0, R10, -8).
		Exit().
		MustBuild()
}

// helperReadsStoreProgram stores a map key and value, hands both to
// map_update_elem, then overwrites the first value word with a second
// store, so the in-states carry stack pointers into both of a map helper's
// buffer arguments. R0 is the value the map saw (0x5a). A raw-mode seed of
// FuzzAnalyzeDifferential.
func helperReadsStoreProgram() *Program {
	b := NewBuilder("opt/helper-reads-store")
	for _, m := range newGenMaps() {
		b.AddMap(m)
	}
	return b.
		StoreImm(R10, -8, 3).     // key
		StoreImm(R10, -24, 0x5a). // value word 0, read only by the helper
		StoreImm(R10, -16, 1).    // value word 1
		LoadMapPtr(R1, genMapHash).
		MovReg(R2, R10).Sub(R2, 8).
		MovReg(R3, R10).Sub(R3, 24).
		Call(HelperMapUpdate).
		StoreImm(R10, -24, 0).
		LoadMapPtr(R1, genMapHash).
		MovReg(R2, R10).Sub(R2, 8).
		Call(HelperMapLookup).
		Jeq(R0, 0, "miss").
		Load(R0, R0, 0).
		Exit().
		Label("miss").
		Mov(R0, 0).
		Exit().
		MustBuild()
}

// FuzzAnalyzeDifferential drives the interpreter and its oracle over
// generated programs and their mutations (which reach the reject paths).
// A negative seed is raw mode: mut is a
// wire-encoded program, so the corpus can pin an exact regression.
func FuzzAnalyzeDifferential(f *testing.F) {
	f.Add(int64(1), uint8(10), []byte{})
	f.Add(int64(8), uint8(9), []byte{0, 0, 0, 0})
	f.Add(int64(42), uint8(30), []byte{2, 7, 255, 255, 7, 3, 0, 0})
	f.Add(int64(99), uint8(36), []byte{6, 1, 0, 0, 5, 2, 128, 0})
	f.Add(int64(141), uint8(39), []byte{})
	f.Add(int64(-1), uint8(0), encodeInsns(helperReadsStoreProgram().Insns))
	f.Add(int64(-1), uint8(0), encodeInsns(stackJoinRegression().Insns))

	f.Fuzz(func(t *testing.T, seed int64, steps uint8, mut []byte) {
		var p *Program
		if seed < 0 {
			insns := decodeInsns(mut)
			if len(insns) == 0 {
				return
			}
			p = &Program{Name: "fuzz/analyze-raw", Insns: insns, Maps: newGenMaps()}
		} else {
			p = genProgram(seed, int(steps%40)+1)
			if len(mut) > 0 {
				checkAnalysesAgree(t, p)
				p = &Program{Name: "fuzz/analyze-mut", Insns: mutateInsns(p.Insns, mut), Maps: p.Maps}
				if len(p.Insns) == 0 {
					return
				}
			}
		}
		checkAnalysesAgree(t, p)
	})
}
