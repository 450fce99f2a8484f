package bpf

import (
	"errors"
	"fmt"
	"math"
)

// ErrVerification wraps all verifier rejections.
var ErrVerification = errors.New("bpf: verification failed")

// VerifyError is a rejection tied to a specific instruction: its pc, its
// text and the reason.
type VerifyError struct {
	PC   int
	Insn string
	Msg  string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("%v: insn %d (%s): %s", ErrVerification, e.PC, e.Insn, e.Msg)
}

func (e *VerifyError) Unwrap() error { return ErrVerification }

func verr(pc int, format string, args ...any) error {
	return &VerifyError{PC: pc, Msg: fmt.Sprintf(format, args...)}
}

// withInsn fills in the text of the instruction of p that err's
// VerifyError names, and returns err.
func withInsn(p *Program, err error) error {
	if err == nil {
		return nil // before ve, which escapes: a verdict of success allocates nothing
	}
	var ve *VerifyError
	if errors.As(err, &ve) && ve.PC >= 0 && ve.PC < len(p.Insns) {
		ve.Insn = p.Insns[ve.PC].String()
	}
	return err
}

// The verifier performs abstract interpretation over the program's CFG,
// mirroring the guarantees the paper leans on (§2.3, §5.1): bounded length,
// no unreachable instructions, no loops (every jump goes forward, as in
// Linux before 5.3, so a run retires at most one instruction per pc), no
// dynamic allocation outside maps, pointer access restricted to a safe API
// (in-bounds stack and map-value memory, null-checked map lookups), and
// helper calls checked against typed signatures.
//
// Each register carries a kind (the pointer lattice below) and, for
// scalars, a VReg interval (domain.go); pointers carry an offset *range*
// [lo, hi] instead of a single offset, so register-offset accesses verify
// whenever every offset in the range is in bounds. Conditional edges are
// refined with vrRefine and pruned when provably infeasible.

type regKind uint8

const (
	rkUninit regKind = iota
	rkScalar
	rkPtrStack
	rkPtrMapValue
	rkPtrMapValueOrNull
	rkConstMap
)

func (k regKind) String() string {
	switch k {
	case rkUninit:
		return "uninit"
	case rkScalar:
		return "scalar"
	case rkPtrStack:
		return "stack-ptr"
	case rkPtrMapValue:
		return "map-value-ptr"
	case rkPtrMapValueOrNull:
		return "map-value-or-null"
	case rkConstMap:
		return "map-handle"
	}
	return "?"
}

// offWindow bounds the pointer offsets an access check will even
// consider. Tracked offsets themselves are exact int64s (matching the
// VM's wrapping arithmetic modulo 2^32 — exactness is what keeps the two
// in sync); the window guard exists so the checks below can add off and
// size without risking int64 overflow on extreme tracked bounds.
const offWindow = int64(1) << 32

type regState struct {
	kind   regKind
	mapIdx int32
	lo, hi int64 // pointer offset bounds (stack: rel. R10; map value: into value)
	vr     VReg  // scalar value, meaningful only when kind == rkScalar
}

func scalarReg(v VReg) regState  { return regState{kind: rkScalar, vr: v} }
func constReg(v int64) regState  { return scalarReg(vrConst(uint64(v))) }
func unknownScalarReg() regState { return scalarReg(vrTop()) }

type absState struct {
	regs      [numRegs]regState
	stackInit stackSet // bit i: stack byte i (offset i-StackSize) is initialized
	valid     bool
}

func entryState() absState {
	var s absState
	s.valid = true
	s.regs[R10] = regState{kind: rkPtrStack}
	return s
}

func joinReg(a, b regState) regState {
	if a.kind != b.kind || a.mapIdx != b.mapIdx {
		return regState{kind: rkUninit}
	}
	switch a.kind {
	case rkScalar:
		a.vr = vrJoin(a.vr, b.vr)
	case rkPtrStack, rkPtrMapValue, rkPtrMapValueOrNull:
		if b.lo < a.lo {
			a.lo = b.lo
		}
		if b.hi > a.hi {
			a.hi = b.hi
		}
	}
	return a
}

// merge joins b into a.
func (a *absState) merge(b *absState) {
	if !a.valid {
		*a = *b
		return
	}
	for i := range a.regs {
		a.regs[i] = joinReg(a.regs[i], b.regs[i])
	}
	// A byte stays initialized only when it is on both paths.
	for i := range a.stackInit {
		a.stackInit[i] &= b.stackInit[i]
	}
}

type succ struct {
	pc    int
	state absState
}

func requireInit(pc int, s *absState, r Reg, what string) error {
	if s.regs[r].kind == rkUninit {
		return verr(pc, "%s uses uninitialized r%d", what, r)
	}
	return nil
}

// addOff adds delta bounds [dlo, dhi] to offset bounds [lo, hi] exactly.
// Any int64 overflow poisons the bounds to the full range: a poisoned
// pointer fails every access-window check, and the full range is
// absorbing under further addOff calls (one endpoint stays extreme), so
// exactness — and with it agreement with the VM's wrapping arithmetic —
// is only ever given up on pointers that can never be dereferenced.
func addOff(lo, hi, dlo, dhi int64) (int64, int64) {
	nlo := lo + dlo
	nhi := hi + dhi
	if (dlo > 0 && nlo < lo) || (dlo < 0 && nlo > lo) ||
		(dhi > 0 && nhi < hi) || (dhi < 0 && nhi > hi) {
		return math.MinInt64, math.MaxInt64
	}
	return nlo, nhi
}

// signedBounds reinterprets an unsigned VReg as signed bounds. ok is
// false when the range straddles the signed boundary (the value's sign is
// unknown), in which case no signed bounds exist.
func signedBounds(v VReg) (lo, hi int64, ok bool) {
	const sign = uint64(1) << 63
	if v.Hi < sign || v.Lo >= sign {
		return int64(v.Lo), int64(v.Hi), true
	}
	return 0, 0, false
}

// stackAccess selects checkStackRange's semantics for the access.
type stackAccess uint8

const (
	// stackRead requires every possibly-touched byte initialized.
	stackRead stackAccess = iota
	// stackWrite marks bytes initialized, but only when the address is
	// exact (a weak update would be unsound to treat as initializing).
	stackWrite
)

// checkStackRange validates an access of size bytes through base (a stack
// pointer with offset range [lo,hi]) plus the static offset off, with
// read or write semantics per mode.
func checkStackRange(pc int, s *absState, base regState, off int32, size int, mode stackAccess) error {
	if base.lo < -offWindow || base.hi > offWindow {
		return verr(pc, "stack access at offset %d size %d out of bounds", base.lo, size)
	}
	lo := base.lo + int64(off)
	hi := base.hi + int64(off)
	if lo < -StackSize || hi+int64(size) > 0 {
		return verr(pc, "stack access at offset %d size %d out of bounds", lo, size)
	}
	if mode == stackWrite {
		if base.lo == base.hi {
			idx := int(lo + StackSize)
			for i := 0; i < size; i++ {
				s.stackInit.set(idx + i)
			}
		}
		return nil
	}
	for a := lo; a < hi+int64(size); a++ {
		if !s.stackInit.get(int(a + StackSize)) {
			return verr(pc, "read of uninitialized stack byte at offset %d", a)
		}
	}
	return nil
}

func checkMapValueAccess(p *Program, pc int, base regState, off int32, size int) error {
	if base.kind == rkPtrMapValueOrNull {
		return verr(pc, "possibly-NULL map value dereference (missing null check)")
	}
	vs := int64(p.Maps[base.mapIdx].ValueSize())
	if base.lo < -offWindow || base.hi > offWindow {
		return verr(pc, "map value access at offset %d size %d outside value size %d", base.lo, size, vs)
	}
	lo := base.lo + int64(off)
	hi := base.hi + int64(off)
	if lo < 0 || hi+int64(size) > vs {
		return verr(pc, "map value access at offset %d size %d outside value size %d", lo, size, vs)
	}
	return nil
}

// condStates writes the refined states of a conditional jump's taken and
// fall-through edges to taken and fall (neither may alias s) and reports
// whether each edge is feasible. Callers have already checked register
// initialization.
func condStates(s *absState, insn Insn, taken, fall *absState) (feasT, feasF bool, err error) {
	d := s.regs[insn.Dst]
	// Null-check refinement for map-lookup results.
	if d.kind == rkPtrMapValueOrNull && !isRegSrc(insn.Op) && insn.Imm == 0 {
		*taken, *fall = *s, *s
		switch insn.Op {
		case OpJeqImm: // taken => ptr == 0 => NULL; fallthrough => non-null
			taken.regs[insn.Dst] = constReg(0)
			fall.regs[insn.Dst] = regState{kind: rkPtrMapValue, mapIdx: d.mapIdx, lo: d.lo, hi: d.hi}
		case OpJneImm: // taken => non-null
			taken.regs[insn.Dst] = regState{kind: rkPtrMapValue, mapIdx: d.mapIdx, lo: d.lo, hi: d.hi}
			fall.regs[insn.Dst] = constReg(0)
		default:
			return false, false, verr(-1, "map value pointer compared with non-equality op before null check")
		}
		return true, true, nil
	}
	if d.kind != rkScalar {
		return false, false, verr(-1, "conditional jump on %s", d.kind)
	}
	var b VReg
	if isRegSrc(insn.Op) {
		if s.regs[insn.Src].kind != rkScalar {
			return false, false, verr(-1, "register compare on non-scalars")
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
	*taken, *fall = *s, *s
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
	return okT, okF, nil
}

// helperArgRegs are the registers that carry helper arguments, in order.
var helperArgRegs = [...]Reg{R1, R2, R3, R4, R5}

// step abstractly executes the instruction at pc on its in-state and
// writes its feasible successors to out, returning how many it wrote; a
// conditional jump also records which of its edges are feasible. The
// in-state is only read. analyze owns out and merges each slot into its
// target's in-state, so a step allocates nothing unless it rejects the
// program.
func (a *Analysis) step(pc int, out *[2]succ) (int, error) {
	p, in := a.prog, &a.states[pc]
	insn := p.Insns[pc]
	switch {
	case insn.Op == OpExit:
		if in.regs[R0].kind != rkScalar {
			return 0, verr(pc, "exit with R0 %s (must be scalar)", in.regs[R0].kind)
		}
		return 0, nil

	case isJump(insn.Op):
		if err := requireInit(pc, in, insn.Dst, "jump"); err != nil {
			return 0, err
		}
		if isRegSrc(insn.Op) {
			if err := requireInit(pc, in, insn.Src, "jump"); err != nil {
				return 0, err
			}
		}
		feasT, feasF, err := condStates(in, insn, &out[0].state, &out[1].state)
		if err != nil {
			if ve := new(VerifyError); errors.As(err, &ve) {
				ve.PC = pc
			}
			return 0, err
		}
		a.condTaken[pc], a.condFall[pc] = feasT, feasF
		switch {
		case feasT && feasF:
			out[0].pc, out[1].pc = pc+1+int(insn.Off), pc+1
			return 2, nil
		case feasT:
			out[0].pc = pc + 1 + int(insn.Off)
			return 1, nil
		case feasF:
			out[0].pc, out[0].state = pc+1, out[1].state
			return 1, nil
		}
		return 0, nil
	}

	// Everything else has exactly one successor, whose state is the
	// in-state with this instruction's effect applied.
	out[0].pc = pc + 1
	s := &out[0].state
	*s = *in
	switch {
	case insn.Op == OpMovImm:
		if insn.Dst == R10 {
			return 0, verr(pc, "write to frame pointer r10")
		}
		s.regs[insn.Dst] = constReg(insn.Imm)
		return 1, nil

	case insn.Op == OpMovReg:
		if insn.Dst == R10 {
			return 0, verr(pc, "write to frame pointer r10")
		}
		if err := requireInit(pc, s, insn.Src, "mov"); err != nil {
			return 0, err
		}
		s.regs[insn.Dst] = s.regs[insn.Src]
		return 1, nil

	case isALU(insn.Op):
		if insn.Dst == R10 {
			return 0, verr(pc, "write to frame pointer r10")
		}
		if err := requireInit(pc, s, insn.Dst, "alu"); err != nil {
			return 0, err
		}
		var src regState
		if isRegSrc(insn.Op) {
			if err := requireInit(pc, s, insn.Src, "alu"); err != nil {
				return 0, err
			}
			src = s.regs[insn.Src]
		} else {
			src = constReg(insn.Imm)
		}
		dst := s.regs[insn.Dst]
		// Pointer arithmetic: ptr +/- scalar with known signed bounds.
		if dst.kind == rkPtrStack || dst.kind == rkPtrMapValue {
			switch insn.Op {
			case OpAddImm, OpAddReg, OpSubImm, OpSubReg:
				if src.kind != rkScalar {
					return 0, verr(pc, "pointer arithmetic with unknown scalar")
				}
				dlo, dhi, ok := signedBounds(src.vr)
				if !ok {
					return 0, verr(pc, "pointer arithmetic with unknown scalar")
				}
				if insn.Op == OpSubImm || insn.Op == OpSubReg {
					if dlo == math.MinInt64 {
						// The VM's wrapping negation maps MinInt64 to
						// itself, so the negated delta set is not an
						// interval; take the full hull (poisons the bounds).
						dlo, dhi = math.MinInt64, math.MaxInt64
					} else {
						dlo, dhi = -dhi, -dlo
					}
				}
				dst.lo, dst.hi = addOff(dst.lo, dst.hi, dlo, dhi)
				s.regs[insn.Dst] = dst
				return 1, nil
			default:
				return 0, verr(pc, "forbidden ALU op on pointer")
			}
		}
		if dst.kind != rkScalar {
			return 0, verr(pc, "alu on %s", dst.kind)
		}
		if src.kind != rkScalar {
			return 0, verr(pc, "alu with %s source", src.kind)
		}
		if insn.Op == OpDivReg && src.vr.IsConst() && src.vr.Const() == 0 {
			return 0, verr(pc, "division by known-zero register")
		}
		s.regs[insn.Dst] = scalarReg(vrTransfer(insn.Op, dst.vr, src.vr))
		return 1, nil

	case insn.Op == OpLoadMapPtr:
		if insn.Dst == R10 {
			return 0, verr(pc, "write to frame pointer r10")
		}
		s.regs[insn.Dst] = regState{kind: rkConstMap, mapIdx: int32(insn.Imm)}
		return 1, nil

	case insn.Op == OpLoad:
		if insn.Dst == R10 {
			return 0, verr(pc, "write to frame pointer r10")
		}
		base := s.regs[insn.Src]
		switch base.kind {
		case rkPtrStack:
			if err := checkStackRange(pc, s, base, insn.Off, 8, stackRead); err != nil {
				return 0, err
			}
		case rkPtrMapValue, rkPtrMapValueOrNull:
			if err := checkMapValueAccess(p, pc, base, insn.Off, 8); err != nil {
				return 0, err
			}
		default:
			return 0, verr(pc, "load through %s", base.kind)
		}
		s.regs[insn.Dst] = unknownScalarReg()
		return 1, nil

	case insn.Op == OpStore, insn.Op == OpStoreImm:
		base := s.regs[insn.Dst]
		if insn.Op == OpStore {
			if err := requireInit(pc, s, insn.Src, "store"); err != nil {
				return 0, err
			}
			if s.regs[insn.Src].kind != rkScalar {
				return 0, verr(pc, "storing %s to memory (pointer leak)", s.regs[insn.Src].kind)
			}
		}
		switch base.kind {
		case rkPtrStack:
			if err := checkStackRange(pc, s, base, insn.Off, 8, stackWrite); err != nil {
				return 0, err
			}
		case rkPtrMapValue, rkPtrMapValueOrNull:
			if err := checkMapValueAccess(p, pc, base, insn.Off, 8); err != nil {
				return 0, err
			}
		default:
			return 0, verr(pc, "store through %s", base.kind)
		}
		return 1, nil

	case insn.Op == OpCall:
		spec, _ := HelperByID(insn.Imm)
		var constMap int32 = -1
		var sizedPtr regState
		sizedPtrSeen := false
		for i, kind := range spec.Args {
			r := helperArgRegs[i]
			if err := requireInit(pc, s, r, spec.Name); err != nil {
				return 0, err
			}
			a := s.regs[r]
			switch kind {
			case ArgScalar:
				if a.kind != rkScalar {
					return 0, verr(pc, "%s arg %d must be scalar, got %s", spec.Name, i+1, a.kind)
				}
			case ArgConstMap:
				if a.kind != rkConstMap {
					return 0, verr(pc, "%s arg %d must be a map handle, got %s", spec.Name, i+1, a.kind)
				}
				constMap = a.mapIdx
				// Helper/map-type compatibility, checked statically like
				// real eBPF: perf output takes a ring and the map helpers
				// take anything else, so the runtime type assertion in
				// vm.go is unreachable for verified programs and no map
				// helper reaches a ring's keyless Map methods.
				_, ring := p.Maps[constMap].(*PerCPURing)
				if output := insn.Imm == HelperPerfOutput; ring != output {
					want := "a keyed map"
					if output {
						want = "a perf ring buffer"
					}
					return 0, verr(pc, "%s arg %d must be %s, got %q", spec.Name, i+1, want, p.Maps[constMap].Name())
				}
			case ArgPtrKey, ArgPtrValue:
				if constMap < 0 {
					return 0, verr(pc, "%s arg %d: no preceding map handle", spec.Name, i+1)
				}
				size := p.Maps[constMap].KeySize()
				if kind == ArgPtrValue {
					size = p.Maps[constMap].ValueSize()
				}
				if a.kind != rkPtrStack {
					return 0, verr(pc, "%s arg %d must be a stack pointer, got %s", spec.Name, i+1, a.kind)
				}
				// Every map helper reads its key and value buffers, so
				// every byte must be initialized.
				if err := checkStackRange(pc, s, a, 0, size, stackRead); err != nil {
					return 0, err
				}
			case ArgPtrSized:
				if a.kind != rkPtrStack {
					return 0, verr(pc, "%s arg %d must be a stack pointer, got %s", spec.Name, i+1, a.kind)
				}
				sizedPtr = a
				sizedPtrSeen = true
			case ArgSizeConst:
				if a.kind != rkScalar || !a.vr.IsConst() || int64(a.vr.Const()) <= 0 {
					return 0, verr(pc, "%s arg %d must be a known positive constant size", spec.Name, i+1)
				}
				if !sizedPtrSeen {
					return 0, verr(pc, "%s arg %d: size without preceding pointer", spec.Name, i+1)
				}
				if err := checkStackRange(pc, s, sizedPtr, 0, int(a.vr.Const()), stackRead); err != nil {
					return 0, err
				}
			}
		}
		// Helper calls clobber caller-saved registers.
		for _, r := range helperArgRegs {
			s.regs[r] = regState{kind: rkUninit}
		}
		switch spec.Ret {
		case RetMapValueOrNull:
			if constMap < 0 {
				return 0, verr(pc, "%s returns map value but has no map arg", spec.Name)
			}
			s.regs[R0] = regState{kind: rkPtrMapValueOrNull, mapIdx: constMap}
		default:
			s.regs[R0] = unknownScalarReg()
		}
		return 1, nil
	}
	return 0, verr(pc, "unhandled opcode %v", insn.Op)
}
