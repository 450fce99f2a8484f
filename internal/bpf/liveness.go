package bpf

// Backward liveness over a verified program, computed from an Analysis in
// one reverse pass. The pass works on the *static* CFG (no feasibility
// pruning): using a superset of the real edges can only mark more things
// live, which is the conservative direction for the dead-code eliminator
// built on top.
//
// Liveness is tracked at two granularities: a register bitmask and a
// per-byte bitset over the 512-byte stack. Stack accesses are resolved
// through the Analysis pointer facts — a store through a pointer whose
// offset is exact kills exactly its bytes; an imprecise store kills
// nothing; an imprecise load uses every byte it might touch.

const stackWords = StackSize / 64

type stackSet [stackWords]uint64

func (s *stackSet) set(i int)      { s[i/64] |= 1 << (i % 64) }
func (s *stackSet) get(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }
func (s *stackSet) or(o *stackSet) {
	for i := range s {
		s[i] |= o[i]
	}
}

// Liveness holds, for every pc, the registers and stack bytes that may be
// read after the instruction executes (its live-out set).
type Liveness struct {
	regsOut  []uint16 // bit r: register r live after pc
	stackOut []stackSet
}

// LiveOutRegs returns the live-after register bitmask for pc.
func (l *Liveness) LiveOutRegs(pc int) uint16 { return l.regsOut[pc] }

// LiveOutStackByte reports whether stack byte idx (0 = deepest, rel.
// R10-StackSize) may be read after pc.
func (l *Liveness) LiveOutStackByte(pc, idx int) bool { return l.stackOut[pc].get(idx) }

// insnEffects describes one instruction's use/def sets for liveness.
type insnEffects struct {
	useRegs uint16
	defRegs uint16
	// Stack bytes read / exactly-written by this instruction.
	useStack  stackSet
	killStack stackSet
}

func regBit(r Reg) uint16 { return 1 << r }

// stackSpan marks bytes [lo, hi+size) (stack-relative offsets, < 0) in a
// set; exact is true when lo == hi, i.e. the access touches a single
// known span.
func markStackSpan(set *stackSet, lo, hi int64, size int) {
	start := lo + StackSize
	end := hi + int64(size) + StackSize
	if start < 0 {
		start = 0
	}
	if end > StackSize {
		end = StackSize
	}
	for i := start; i < end; i++ {
		set.set(int(i))
	}
}

// effects computes the use/def/kill sets of the instruction at pc, using
// the analysis in-state to resolve pointer targets. For unreached pcs the
// state is unavailable: treat stack effects maximally conservatively
// (use everything, kill nothing).
func (a *Analysis) effects(pc int) insnEffects {
	var e insnEffects
	in := a.prog.Insns[pc]
	st := &a.states[pc]
	reached := st.valid

	stackPtr := func(r Reg) (regState, bool) {
		if !reached {
			return regState{}, false
		}
		rs := st.regs[r]
		return rs, rs.kind == rkPtrStack
	}
	useAllStack := func() {
		for i := range e.useStack {
			e.useStack[i] = ^uint64(0)
		}
	}

	switch {
	case in.Op == OpExit:
		e.useRegs = regBit(R0)

	case in.Op == OpMovImm:
		e.defRegs = regBit(in.Dst)
	case in.Op == OpMovReg:
		e.useRegs = regBit(in.Src)
		e.defRegs = regBit(in.Dst)
	case isALU(in.Op):
		e.useRegs = regBit(in.Dst)
		if isRegSrc(in.Op) {
			e.useRegs |= regBit(in.Src)
		}
		e.defRegs = regBit(in.Dst)

	case in.Op == OpLoadMapPtr:
		e.defRegs = regBit(in.Dst)

	case in.Op == OpLoad:
		e.useRegs = regBit(in.Src)
		e.defRegs = regBit(in.Dst)
		if base, ok := stackPtr(in.Src); ok {
			markStackSpan(&e.useStack, base.lo+int64(in.Off), base.hi+int64(in.Off), 8)
		} else if !reached {
			useAllStack()
		}

	case in.Op == OpStore, in.Op == OpStoreImm:
		e.useRegs = regBit(in.Dst)
		if in.Op == OpStore {
			e.useRegs |= regBit(in.Src)
		}
		if base, ok := stackPtr(in.Dst); ok {
			if base.lo == base.hi {
				markStackSpan(&e.killStack, base.lo+int64(in.Off), base.hi+int64(in.Off), 8)
			}
			// An imprecise store kills nothing (weak update), and a
			// store never *uses* stack bytes.
		}
		// Stores through map-value pointers escape the invocation; the
		// stored register is already in useRegs.

	case in.Op == OpJa:
		// no effects
	case isCondJump(in.Op):
		e.useRegs = regBit(in.Dst)
		if isRegSrc(in.Op) {
			e.useRegs |= regBit(in.Src)
		}

	case in.Op == OpCall:
		spec, _ := HelperByID(in.Imm)
		for i := range spec.Args {
			e.useRegs |= regBit(helperArgRegs[i])
		}
		// R0 is defined; R1-R5 are clobbered (defined-to-garbage), which
		// for liveness is also a def.
		e.defRegs = regBit(R0) | regBit(R1) | regBit(R2) | regBit(R3) | regBit(R4) | regBit(R5)
		// Resolve helper stack-buffer reads/writes through the arg specs.
		if !reached {
			useAllStack()
			break
		}
		var constMap int32 = -1
		var sizedPtr regState
		sizedPtrSeen := false
		for i, kind := range spec.Args {
			arg := st.regs[helperArgRegs[i]]
			switch kind {
			case ArgConstMap:
				if arg.kind == rkConstMap {
					constMap = arg.mapIdx
				}
			case ArgPtrKey, ArgPtrValue:
				if constMap < 0 || arg.kind != rkPtrStack {
					continue
				}
				size := a.prog.Maps[constMap].KeySize()
				if kind == ArgPtrValue {
					size = a.prog.Maps[constMap].ValueSize()
				}
				if size == 0 {
					continue
				}
				// Every map helper reads its key and value buffers.
				markStackSpan(&e.useStack, arg.lo, arg.hi, size)
			case ArgPtrSized:
				if arg.kind == rkPtrStack {
					sizedPtr = arg
					sizedPtrSeen = true
				}
			case ArgSizeConst:
				if sizedPtrSeen && arg.kind == rkScalar && arg.vr.IsConst() {
					markStackSpan(&e.useStack, sizedPtr.lo, sizedPtr.hi, int(arg.vr.Const()))
				}
			}
		}
	}
	return e
}

// Liveness runs the backward may-live analysis. Every jump goes forward,
// so a pc's successors all come after it: one pass from the last pc to the
// first sees each successor's final live-in set.
func (a *Analysis) Liveness() *Liveness {
	insns := a.prog.Insns
	n := len(insns)
	lv := &Liveness{
		regsOut:  make([]uint16, n),
		stackOut: make([]stackSet, n),
	}
	liveInRegs := make([]uint16, n)
	liveInStack := make([]stackSet, n)
	for pc := n - 1; pc >= 0; pc-- {
		// out = union of successors' in.
		outRegs := &lv.regsOut[pc]
		outStack := &lv.stackOut[pc]
		succs, k := cfgSuccs(insns[pc], pc)
		for _, s := range succs[:k] {
			*outRegs |= liveInRegs[s]
			outStack.or(&liveInStack[s])
		}

		// in = use ∪ (out − def/kill).
		e := a.effects(pc)
		liveInRegs[pc] = e.useRegs | (*outRegs &^ e.defRegs)
		for i := range liveInStack[pc] {
			liveInStack[pc][i] = e.useStack[i] | (outStack[i] &^ e.killStack[i])
		}
	}
	return lv
}
