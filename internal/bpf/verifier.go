package bpf

import (
	"errors"
	"fmt"
	"math"
)

// ErrVerification wraps all verifier rejections.
var ErrVerification = errors.New("bpf: verification failed")

// VerifyError is a rejection tied to a specific instruction; tools (tsctl
// vet, codegen error reporting) extract the failing pc via errors.As.
type VerifyError struct {
	PC  int
	Msg string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("bpf: verification failed: insn %d: %s", e.PC, e.Msg)
}

func (e *VerifyError) Unwrap() error { return ErrVerification }

func verr(pc int, format string, args ...any) error {
	return &VerifyError{PC: pc, Msg: fmt.Sprintf(format, args...)}
}

// The verifier performs abstract interpretation over the program's CFG,
// mirroring the guarantees the paper leans on (§2.3, §5.1): bounded length,
// no unreachable instructions, loops only with compile-time bounds, no
// dynamic allocation outside maps, pointer access restricted to a safe API
// (in-bounds stack and map-value memory, null-checked map lookups), and
// helper calls checked against typed signatures.
//
// Each register carries a kind (the pointer lattice below) and, for
// scalars, a VReg product value (interval × tnum, domain.go); pointers
// carry an offset *range* [lo, hi] instead of a single offset, so
// register-offset accesses verify whenever every offset in the range is in
// bounds. Conditional edges are refined with vrRefine and pruned when
// provably infeasible.

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
	stackInit [StackSize]bool
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

// widenReg is joinReg with acceleration: any bound that still moves at a
// loop head jumps straight to its extreme so fixpoints terminate.
func widenReg(a, b regState) regState {
	if a.kind != b.kind || a.mapIdx != b.mapIdx {
		return regState{kind: rkUninit}
	}
	switch a.kind {
	case rkScalar:
		a.vr = vrWiden(a.vr, b.vr)
	case rkPtrStack, rkPtrMapValue, rkPtrMapValueOrNull:
		if b.lo < a.lo {
			a.lo = math.MinInt64
		}
		if b.hi > a.hi {
			a.hi = math.MaxInt64
		}
	}
	return a
}

// merge joins b into a (with widening when widen is set), reporting
// whether a changed.
func (a *absState) merge(b *absState, widen bool) bool {
	if !a.valid {
		*a = *b
		return true
	}
	changed := false
	for i := range a.regs {
		var merged regState
		if widen {
			merged = widenReg(a.regs[i], b.regs[i])
		} else {
			merged = joinReg(a.regs[i], b.regs[i])
		}
		if merged != a.regs[i] {
			a.regs[i] = merged
			changed = true
		}
	}
	for i := range a.stackInit {
		if a.stackInit[i] && !b.stackInit[i] {
			a.stackInit[i] = false
			changed = true
		}
	}
	return changed
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
	// stackCondWrite is a write that may not happen at runtime (e.g.
	// stack_pop fills its buffer only on success): bounds-check only,
	// neither requiring nor providing initialization.
	stackCondWrite
)

// checkStackRange validates an access of size bytes through base (a stack
// pointer with offset range [lo,hi]) plus the static offset off, with
// read/write/conditional-write semantics per mode.
func checkStackRange(pc int, s *absState, base regState, off int32, size int, mode stackAccess) error {
	if base.lo < -offWindow || base.hi > offWindow {
		return verr(pc, "stack access at offset %d size %d out of bounds", base.lo, size)
	}
	lo := base.lo + int64(off)
	hi := base.hi + int64(off)
	if lo < -StackSize || hi+int64(size) > 0 {
		return verr(pc, "stack access at offset %d size %d out of bounds", lo, size)
	}
	switch mode {
	case stackWrite:
		if base.lo == base.hi {
			idx := int(lo + StackSize)
			for i := 0; i < size; i++ {
				s.stackInit[idx+i] = true
			}
		}
		return nil
	case stackCondWrite:
		return nil
	}
	for a := lo; a < hi+int64(size); a++ {
		if !s.stackInit[a+StackSize] {
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

// condStates computes the refined taken/fall-through states of a
// conditional jump and whether each edge is feasible. Callers have
// already checked register initialization.
func condStates(s absState, insn Insn) (taken, fall absState, feasT, feasF bool, err error) {
	d := s.regs[insn.Dst]
	// Null-check refinement for map-lookup results.
	if d.kind == rkPtrMapValueOrNull && !isRegSrc(insn.Op) && insn.Imm == 0 {
		taken, fall = s, s
		switch insn.Op {
		case OpJeqImm: // taken => ptr == 0 => NULL; fallthrough => non-null
			taken.regs[insn.Dst] = constReg(0)
			fall.regs[insn.Dst] = regState{kind: rkPtrMapValue, mapIdx: d.mapIdx, lo: d.lo, hi: d.hi}
		case OpJneImm: // taken => non-null
			taken.regs[insn.Dst] = regState{kind: rkPtrMapValue, mapIdx: d.mapIdx, lo: d.lo, hi: d.hi}
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

func step(p *Program, pc int, in absState) ([]succ, error) {
	s := in
	insn := p.Insns[pc]
	next := func() []succ { return []succ{{pc + 1, s}} }

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
		if err := requireInit(pc, &s, insn.Src, "mov"); err != nil {
			return nil, err
		}
		s.regs[insn.Dst] = s.regs[insn.Src]
		return next(), nil

	case isALU(insn.Op):
		if insn.Dst == R10 {
			return nil, verr(pc, "write to frame pointer r10")
		}
		if err := requireInit(pc, &s, insn.Dst, "alu"); err != nil {
			return nil, err
		}
		var src regState
		if isRegSrc(insn.Op) {
			if err := requireInit(pc, &s, insn.Src, "alu"); err != nil {
				return nil, err
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
					return nil, verr(pc, "pointer arithmetic with unknown scalar")
				}
				dlo, dhi, ok := signedBounds(src.vr)
				if !ok {
					return nil, verr(pc, "pointer arithmetic with unknown scalar")
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
				return next(), nil
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
		if (insn.Op == OpDivReg || insn.Op == OpModReg) && src.vr.IsConst() && src.vr.Const() == 0 {
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
			if err := checkStackRange(pc, &s, base, insn.Off, 8, stackRead); err != nil {
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
			if err := requireInit(pc, &s, insn.Src, "store"); err != nil {
				return nil, err
			}
			if s.regs[insn.Src].kind != rkScalar {
				return nil, verr(pc, "storing %s to memory (pointer leak)", s.regs[insn.Src].kind)
			}
		}
		switch base.kind {
		case rkPtrStack:
			if err := checkStackRange(pc, &s, base, insn.Off, 8, stackWrite); err != nil {
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

	case insn.Op == OpJa:
		return []succ{{pc + 1 + int(insn.Off), s}}, nil

	case isCondJump(insn.Op):
		if err := requireInit(pc, &s, insn.Dst, "jump"); err != nil {
			return nil, err
		}
		if isRegSrc(insn.Op) {
			if err := requireInit(pc, &s, insn.Src, "jump"); err != nil {
				return nil, err
			}
		}
		taken, fall, feasT, feasF, err := condStates(s, insn)
		if err != nil {
			if ve := new(VerifyError); errors.As(err, &ve) {
				ve.PC = pc
			}
			return nil, err
		}
		var outs []succ
		if feasT {
			outs = append(outs, succ{pc + 1 + int(insn.Off), taken})
		}
		if feasF {
			outs = append(outs, succ{pc + 1, fall})
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
			if err := requireInit(pc, &s, r, spec.Name); err != nil {
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
				// Helper/map-type compatibility, checked statically like
				// real eBPF: the runtime type assertions in vm.go must be
				// unreachable for verified programs. (Found by FuzzVerify:
				// stack_pop on a hash map verified, then faulted.)
				switch insn.Imm {
				case HelperStackPush, HelperStackPop:
					if _, ok := p.Maps[constMap].(*StackMap); !ok {
						return nil, verr(pc, "%s arg %d must be a stack map, got %q", spec.Name, i+1, p.Maps[constMap].Name())
					}
				case HelperPerfOutput:
					if _, ok := p.Maps[constMap].(*PerCPURing); !ok {
						return nil, verr(pc, "%s arg %d must be a perf ring buffer, got %q", spec.Name, i+1, p.Maps[constMap].Name())
					}
				}
			case ArgPtrKey, ArgPtrValue:
				if constMap < 0 {
					return nil, verr(pc, "%s arg %d: no preceding map handle", spec.Name, i+1)
				}
				size := p.Maps[constMap].KeySize()
				if kind == ArgPtrValue {
					size = p.Maps[constMap].ValueSize()
				}
				if size == 0 {
					break // keyless map; argument ignored
				}
				if a.kind != rkPtrStack {
					return nil, verr(pc, "%s arg %d must be a stack pointer, got %s", spec.Name, i+1, a.kind)
				}
				// Map update/push read the buffer, so every byte must be
				// initialized. Pop writes it, but only when the pop
				// succeeds (vm.go leaves the buffer untouched on the
				// failure path), so the destination is bounds-checked
				// without marking bytes initialized: a conditional write
				// must not let later code read bytes the VM never wrote.
				mode := stackRead
				if insn.Imm == HelperStackPop {
					mode = stackCondWrite
				}
				if err := checkStackRange(pc, &s, a, 0, size, mode); err != nil {
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
				if err := checkStackRange(pc, &s, sizedPtr, 0, int(a.vr.Const()), stackRead); err != nil {
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
