package bpf

import (
	"errors"
	"fmt"
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
// scalars, a VReg interval (domain.go). A pointer carries one exact offset:
// only an immediate moves it (add or sub, the forms codegen emits), and a
// join of a pointer held at two different offsets is uninit, so any later
// use of it is rejected. Every memory access and every pointer a helper
// takes is therefore one window at one offset, which the JIT compiles to
// constant stack indices. Conditional edges are refined with vrRefine and
// pruned when provably infeasible.

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

// offWindow bounds a pointer's offset: addOff refuses a move whose
// immediate or result leaves [-offWindow, offWindow]. Offsets are exact
// int64s, which agree with the VM's address arithmetic modulo 2^32; the
// window keeps them, and an access's offset and size added to them, far
// from int64 overflow.
const offWindow = int64(1) << 32

type regState struct {
	kind   regKind
	mapIdx int32
	off    int64 // pointer offset (stack: rel. R10; map value: into value)
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

const stackWords = StackSize / 64

// stackSet is a bitset over the bytes of the stack.
type stackSet [stackWords]uint64

func (s *stackSet) set(i int)      { s[i/64] |= 1 << (i % 64) }
func (s *stackSet) get(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

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
		if a.off != b.off {
			return regState{kind: rkUninit}
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

// addOff returns off moved by delta, and false when the delta or the
// result leaves [-offWindow, offWindow]. Checking delta first keeps the sum
// from overflowing.
func addOff(off, delta int64) (int64, bool) {
	if delta < -offWindow || delta > offWindow {
		return 0, false
	}
	off += delta
	return off, off >= -offWindow && off <= offWindow
}

// stackAccess selects checkStack's semantics for the access.
type stackAccess uint8

const (
	// stackRead requires every touched byte initialized.
	stackRead stackAccess = iota
	// stackWrite marks the touched bytes initialized.
	stackWrite
)

// checkStack validates an access of size bytes at the stack pointer base
// plus the static offset off, with read or write semantics per mode.
// size is positive; comparing lo with -size rather than adding them keeps
// a huge size from overflowing.
func checkStack(pc int, s *absState, base regState, off int32, size int, mode stackAccess) error {
	lo := base.off + int64(off)
	if lo < -StackSize || lo > -int64(size) {
		return verr(pc, "stack access at offset %d size %d out of bounds", lo, size)
	}
	for i := int(lo + StackSize); i < int(lo+StackSize)+size; i++ {
		if mode == stackWrite {
			s.stackInit.set(i)
		} else if !s.stackInit.get(i) {
			return verr(pc, "read of uninitialized stack byte at offset %d", i-StackSize)
		}
	}
	return nil
}

// stackArg requires a, argument i+1 of helper name, to be a stack pointer:
// a callFrame (compile.go) slices a call's key, value and sample at the
// pointer's constant stack index.
func stackArg(pc int, name string, i int, a regState) error {
	if a.kind != rkPtrStack {
		return verr(pc, "%s arg %d must be a stack pointer, got %s", name, i+1, a.kind)
	}
	return nil
}

func checkMapValueAccess(p *Program, pc int, base regState, off int32, size int) error {
	if base.kind == rkPtrMapValueOrNull {
		return verr(pc, "possibly-NULL map value dereference (missing null check)")
	}
	vs := int64(p.Maps[base.mapIdx].ValueSize())
	lo := base.off + int64(off)
	if lo < 0 || lo+int64(size) > vs {
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
			fall.regs[insn.Dst].kind = rkPtrMapValue
		case OpJneImm: // taken => non-null
			taken.regs[insn.Dst].kind = rkPtrMapValue
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
// writes its feasible successors to out, returning how many it wrote. The
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
		// Pointer arithmetic: an immediate moves the exact offset.
		if dst.kind == rkPtrStack || dst.kind == rkPtrMapValue {
			switch insn.Op {
			case OpAddImm, OpSubImm:
				delta := insn.Imm
				if insn.Op == OpSubImm {
					delta = -delta // MinInt64 stays itself, outside the window
				}
				off, ok := addOff(dst.off, delta)
				if !ok {
					return 0, verr(pc, "pointer offset %d moved by %d leaves the offset window", dst.off, delta)
				}
				dst.off = off
				s.regs[insn.Dst] = dst
				return 1, nil
			case OpAddReg, OpSubReg:
				return 0, verr(pc, "pointer arithmetic with a register (only an immediate moves a pointer)")
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
			if err := checkStack(pc, s, base, insn.Off, 8, stackRead); err != nil {
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
			if err := checkStack(pc, s, base, insn.Off, 8, stackWrite); err != nil {
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
				// real eBPF: perf output takes a ring, lookup any keyed
				// map, and update and delete a hash map — exactly the
				// pairs the compiler binds a callFrame for.
				_, ring := p.Maps[constMap].(*PerCPURing)
				if output := insn.Imm == HelperPerfOutput; ring != output {
					want := "a keyed map"
					if output {
						want = "a perf ring buffer"
					}
					return 0, verr(pc, "%s arg %d must be %s, got %q", spec.Name, i+1, want, p.Maps[constMap].Name())
				}
				if _, hash := p.Maps[constMap].(*HashMap); !hash && (insn.Imm == HelperMapUpdate || insn.Imm == HelperMapDelete) {
					return 0, verr(pc, "%s arg %d must be a hash map, got %q", spec.Name, i+1, p.Maps[constMap].Name())
				}
			case ArgPtrKey, ArgPtrValue:
				if constMap < 0 {
					return 0, verr(pc, "%s arg %d: no preceding map handle", spec.Name, i+1)
				}
				size := p.Maps[constMap].KeySize()
				if kind == ArgPtrValue {
					size = p.Maps[constMap].ValueSize()
				}
				if err := stackArg(pc, spec.Name, i, a); err != nil {
					return 0, err
				}
				// Every map helper reads its key and value buffers, so
				// every byte must be initialized.
				if err := checkStack(pc, s, a, 0, size, stackRead); err != nil {
					return 0, err
				}
			case ArgPtrSized:
				if err := stackArg(pc, spec.Name, i, a); err != nil {
					return 0, err
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
				if err := checkStack(pc, s, sizedPtr, 0, int(a.vr.Const()), stackRead); err != nil {
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
