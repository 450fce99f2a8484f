package bpf

import (
	"encoding/binary"
	"math/rand"
)

// This file is the adversarial-input side of the verifier/VM contract
// (paper §5.1): a seeded, deterministic generator of Collector-shaped BPF
// programs, a wire codec for raw instruction streams, and a mutation
// engine. The fuzz targets in fuzz_test.go drive all three against the
// differential oracle "generator says valid ⇒ verifier accepts ⇒ VM runs
// without fault"; anything here that disagrees with the verifier is a bug
// in one of the two, which is exactly what the harness exists to find.

// Standard map-table indices used by generated and decoded fuzz programs.
// The set mirrors what TScout codegen wires into a Collector: hash state,
// an array, perf rings, and per-task storage.
const (
	genMapHash = iota
	genMapArray
	genMapRing
	genMapPerTask
	genMapPerCPU
	genMapWide
	numGenMaps
)

const (
	genHashValueSize = 16
	genArrayValue    = 16
	// genWideWords is the value size, in words, of the wide per-task map
	// the copy and delta runs walk.
	genWideWords = 12
)

// newGenMaps builds a fresh instance of the standard fuzz map table. Each
// fuzz iteration gets its own maps so runs replay deterministically.
func newGenMaps() []Map {
	return []Map{
		genMapHash:    NewHashMap("fuzz/hash", genHashValueSize, 16),
		genMapArray:   NewArrayMap("fuzz/array", genArrayValue, 4),
		genMapRing:    NewPerCPURing("fuzz/ring", 1, 32),
		genMapPerTask: NewPerTaskMap("fuzz/pertask", genHashValueSize),
		genMapPerCPU:  NewPerCPURing("fuzz/percpu", 4, 8),
		genMapWide:    NewPerTaskMap("fuzz/wide", 8*genWideWords),
	}
}

// genReg mirrors the verifier's register lattice just closely enough for
// the generator to emit only instructions the verifier must accept.
type genReg struct {
	kind   regKind
	off    int64 // stack pointers: offset relative to R10
	mapIdx int32
}

type genState struct {
	regs      [numRegs]genReg
	stackInit [StackSize / 8]bool // word-granular, index 0 = offset -512
}

func genEntryState() genState {
	var s genState
	s.regs[R10] = genReg{kind: rkPtrStack}
	return s
}

// slotOff converts a stack word index (0..63) to its R10-relative offset.
func slotOff(w int) int32 { return int32(8*w) - StackSize }

// mergeGenState joins two control-flow paths the way the verifier's join
// does: registers keep their state only when both paths agree, scalars
// demote to unknown, and stack words stay initialized only when both paths
// initialized them.
func mergeGenState(a, b genState) genState {
	var out genState
	for i := range out.regs {
		ra, rb := a.regs[i], b.regs[i]
		switch {
		case ra == rb:
			out.regs[i] = ra
		case ra.kind == rkScalar && rb.kind == rkScalar:
			out.regs[i] = genReg{kind: rkScalar}
		default:
			out.regs[i] = genReg{} // rkUninit
		}
	}
	for i := range out.stackInit {
		out.stackInit[i] = a.stackInit[i] && b.stackInit[i]
	}
	return out
}

// progGen carries one generation run.
type progGen struct {
	rng      *rand.Rand
	b        *Builder
	st       genState
	labelN   int
	depth    int           // nesting depth of branch constructs
	reserved [numRegs]bool // registers scalarReg must not clobber
}

// genProgram deterministically generates a valid-by-construction program
// from seed: the same (seed, steps) always yields the same program. The
// program uses the standard fuzz map table (newGenMaps) and is built so
// that the verifier MUST accept it and the VM MUST run it to completion —
// the generator tracks a conservative mirror of the verifier's abstract
// state and only emits instructions legal in that state.
func genProgram(seed int64, steps int) *Program {
	if steps < 1 {
		steps = 1
	}
	g := &progGen{
		rng: rand.New(rand.NewSource(seed)),
		b:   NewBuilder("fuzz/gen"),
		st:  genEntryState(),
	}
	for _, m := range newGenMaps() {
		g.b.AddMap(m)
	}
	for i := 0; i < steps; i++ {
		g.step()
	}
	// Epilogue: R0 must be a scalar at exit.
	g.b.Mov(R0, g.smallImm()).Exit()
	return g.b.MustBuild()
}

func (g *progGen) label(prefix string) string {
	g.labelN++
	return prefix + "_" + itoa(g.labelN)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func (g *progGen) smallImm() int64 { return int64(g.rng.Intn(1024)) - 256 }

// scratchReg picks a general-purpose register (never R10, never a reserved
// one).
func (g *progGen) scratchReg() Reg {
	for {
		r := Reg(g.rng.Intn(9) + 1) // R1..R9
		if !g.reserved[r] {
			return r
		}
	}
}

// scalarReg returns a register currently holding an initialized scalar,
// initializing one with a mov if none exists.
func (g *progGen) scalarReg() Reg {
	cands := make([]Reg, 0, numRegs)
	for r := Reg(0); r < numRegs; r++ {
		if r != R10 && !g.reserved[r] && g.st.regs[r].kind == rkScalar {
			cands = append(cands, r)
		}
	}
	if len(cands) > 0 {
		return cands[g.rng.Intn(len(cands))]
	}
	r := g.scratchReg()
	g.b.Mov(r, g.smallImm())
	g.st.regs[r] = genReg{kind: rkScalar}
	return r
}

// initSlot stores to stack word w (via R10), marking it initialized.
func (g *progGen) initSlot(w int) {
	if g.rng.Intn(2) == 0 {
		g.b.StoreImm(R10, slotOff(w), g.smallImm())
	} else {
		src := g.scalarReg()
		g.b.Store(R10, slotOff(w), src)
	}
	g.st.stackInit[w] = true
}

// initRange initializes n consecutive stack words starting at w.
func (g *progGen) initRange(w, n int) {
	for i := 0; i < n; i++ {
		if !g.st.stackInit[w+i] {
			g.initSlot(w + i)
		}
	}
}

func (g *progGen) randSlot() int { return g.rng.Intn(StackSize / 8) }

// initializedSlot returns a random initialized stack word, creating one
// when none exists yet.
func (g *progGen) initializedSlot() int {
	cands := make([]int, 0, StackSize/8)
	for w, ok := range g.st.stackInit {
		if ok {
			cands = append(cands, w)
		}
	}
	if len(cands) > 0 {
		return cands[g.rng.Intn(len(cands))]
	}
	w := g.randSlot()
	g.initSlot(w)
	return w
}

// step emits one random construct.
func (g *progGen) step() {
	choice := g.rng.Intn(100)
	switch {
	case choice < 14:
		g.genMovImm()
	case choice < 32:
		g.genALU()
	case choice < 44, 62 <= choice && choice < 70:
		g.genStackStoreLoad()
	case choice < 52:
		g.genPointerWalk()
	case choice < 62:
		if g.depth < 2 {
			g.genBranch()
		} else {
			g.genALU()
		}
	case choice < 78:
		g.genSimpleHelper()
	case choice < 86:
		g.genMapLookup()
	case choice < 94:
		g.genMapUpdate()
	case choice < 97:
		g.genPerfOutput()
	default:
		g.genFusedShape()
	}
}

// genFusedShape emits one of the Collector shapes the JIT's peephole folds
// into a single super-op (compile.go: matchArgCallStore, matchCopyRun,
// matchDeltaRun, matchLadder, matchFrame), with its operands drawn at
// random so the
// differential targets compare each fused op with the interpreter.
func (g *progGen) genFusedShape() {
	switch g.rng.Intn(5) {
	case 4:
		g.genKeyedCall()
	case 0:
		// mov r1, F; call read_ioac | read_sock; stx [fp-D], r0
		id := int64(HelperReadIOAC)
		if g.rng.Intn(2) == 1 {
			id = HelperReadSock
		}
		g.b.Mov(R1, int64(g.rng.Intn(6))).Call(id)
		g.helperClobber()
		w := g.randSlot()
		g.b.Store(R10, slotOff(w), R0)
		g.st.regs[R0] = genReg{kind: rkScalar}
		g.st.stackInit[w] = true
	case 1, 2:
		g.genWideRun(g.rng.Intn(2) == 0)
	default:
		g.genLadder()
	}
}

// genWideRun looks up the wide per-task map and, behind the null check,
// emits a run of 2–12 word copies from the value into the stack (copy) or
// of END-style deltas from the stack into the value (delta): adjacent
// words through one base register and fixed scratch registers.
func (g *progGen) genWideRun(copyRun bool) {
	n := g.rng.Intn(genWideWords-1) + 2
	word := g.rng.Intn(genWideWords - n + 1)
	slot := g.rng.Intn(StackSize/8 - n)
	if !copyRun {
		g.initRange(slot, n)
	}
	key := g.rng.Intn(StackSize / 8)
	g.b.StoreImm(R10, slotOff(key), int64(g.rng.Intn(4)))
	g.st.stackInit[key] = true
	g.b.LoadMapPtr(R1, genMapWide)
	g.emitStackPtr(R2, key)
	g.b.Call(HelperMapLookup)
	g.helperClobber()
	skip := g.label("wide")
	g.b.Jeq(R0, 0, skip)
	base, a, b := g.distinctRegs()
	g.b.MovReg(base, R0)
	for i := 0; i < n; i++ {
		off := int32(8 * (word + i))
		if copyRun {
			g.b.Load(a, base, off).Store(R10, slotOff(slot+i), a)
		} else {
			g.b.Load(a, R10, slotOff(slot+i)).Load(b, base, off).
				SubReg(a, b).Store(base, off, a)
		}
	}
	g.b.Label(skip)
	// The skip path writes none of it: registers and (for a copy) slots
	// join as the pre-lookup state left them, minus what the call clobbered.
	g.st.regs[R0] = genReg{}
	g.st.regs[base], g.st.regs[a], g.st.regs[b] = genReg{}, genReg{}, genReg{}
}

// genKeyedCall emits the Collector's prologue and entry-key shapes around
// map calls (matchFrame): the task generation spilled twice and used as
// the per-task key, a lookup, its null check and a load through the moved
// pointer; then a key gen<<S + depth [+ adj] spilled and fed to a hash-map
// lookup, update or delete, with a branch on r0 or an accumulation of it.
func (g *progGen) genKeyedCall() {
	call := g.rng.Intn(3)
	val := g.rng.Intn(StackSize/8 - 2)
	if call == 1 {
		g.initRange(val, 2) // before the shape: it may take any scratch register
	}
	gen, ptr, depth := g.distinctRegs()
	spill := g.randSlot()
	key := g.randSlot()
	g.b.Call(HelperGetTaskGen).MovReg(gen, R0).
		Store(R10, slotOff(spill), gen).Store(R10, slotOff(key), gen).
		LoadMapPtr(R1, genMapPerTask)
	g.emitStackPtr(R2, key)
	skip := g.label("keyed")
	g.b.Call(HelperMapLookup).Jeq(R0, 0, skip).
		MovReg(ptr, R0).Load(depth, ptr, int32(8*g.rng.Intn(2)))
	g.b.MovReg(ptr, gen).Lsh(ptr, int64(g.rng.Intn(12))).AddReg(ptr, depth)
	if g.rng.Intn(2) == 0 {
		g.b.Add(ptr, int64(g.rng.Intn(3))-1)
	}
	g.b.Store(R10, slotOff(key), ptr).LoadMapPtr(R1, genMapHash)
	g.emitStackPtr(R2, key)
	switch call {
	case 0:
		g.b.Call(HelperMapLookup).Jeq(R0, 0, skip).MovReg(depth, R0).Load(ptr, depth, 8)
	case 1:
		g.emitStackPtr(R3, val)
		g.b.Call(HelperMapUpdate).Jne(R0, 0, skip)
	default:
		g.b.Call(HelperMapDelete).AddReg(depth, R0)
	}
	g.b.Label(skip)
	g.helperClobber()
	g.st.regs[R0] = genReg{}
	g.st.regs[gen], g.st.regs[ptr], g.st.regs[depth] = genReg{}, genReg{}, genReg{}
	g.st.stackInit[spill], g.st.stackInit[key] = true, true
}

// distinctRegs returns three distinct unreserved registers from R6–R9,
// which helper calls leave alone.
func (g *progGen) distinctRegs() (Reg, Reg, Reg) {
	var free []Reg
	for r := R6; r <= R9; r++ {
		if !g.reserved[r] {
			free = append(free, r)
		}
	}
	for len(free) < 3 {
		free = append(free, R3+Reg(len(free))) // R3–R5: no call inside a run
	}
	g.rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	return free[0], free[1], free[2]
}

// genLadder emits FEATURES' guarded argument copy: a count rN the verifier
// can only bound (a tracepoint argument scaled, offset and cut to its low
// four bits, 0–15), then 2–16 rungs of `jle rN, i, done; mov r1, A+i;
// call get_tracepoint_arg; stx [fp-(S+8i)], r0`. Across seeds the run
// leaves at every rung.
func (g *progGen) genLadder() {
	n := g.rng.Intn(15) + 2
	slot := g.rng.Intn(StackSize/8 - n)
	cnt, _, _ := g.distinctRegs()
	g.b.Mov(R1, int64(g.rng.Intn(4))).Call(HelperGetArg)
	g.helperClobber()
	g.b.MovReg(cnt, R0).Lsh(cnt, int64(g.rng.Intn(3))).
		Add(cnt, int64(g.rng.Intn(16))).Lsh(cnt, 60).Rsh(cnt, 60)
	done := g.label("ladder")
	arg := int64(g.rng.Intn(6))
	for i := 0; i < n; i++ {
		g.b.Jle(cnt, int64(i), done).
			Mov(R1, arg+int64(i)).Call(HelperGetArg).
			Store(R10, slotOff(slot+i), R0)
	}
	g.b.Label(done)
	g.helperClobber()
	g.st.regs[R0] = genReg{}
	g.st.regs[cnt] = genReg{kind: rkScalar}
}

func (g *progGen) genMovImm() {
	r := g.scratchReg()
	g.b.Mov(r, g.smallImm())
	g.st.regs[r] = genReg{kind: rkScalar}
}

// genALU emits one scalar ALU operation with verifier-safe operands.
func (g *progGen) genALU() {
	dst := g.scalarReg()
	ops := []Op{OpAddImm, OpSubImm, OpLshImm, OpRshImm,
		OpAddReg, OpSubReg, OpMulReg, OpDivReg}
	op := ops[g.rng.Intn(len(ops))]
	in := Insn{Op: op, Dst: dst}
	switch op {
	case OpLshImm, OpRshImm:
		in.Imm = int64(g.rng.Intn(64))
	default:
		if isRegSrc(op) {
			src := g.scalarReg()
			if op == OpDivReg {
				// The verifier rejects division by a known-zero register;
				// pin the divisor to a known nonzero constant.
				g.b.Mov(src, int64(g.rng.Intn(100)+1))
				g.st.regs[src] = genReg{kind: rkScalar}
			}
			in.Src = src
		} else {
			in.Imm = g.smallImm()
		}
	}
	g.b.emit(in)
	g.st.regs[dst] = genReg{kind: rkScalar}
}

func (g *progGen) genStackStoreLoad() {
	if g.rng.Intn(2) == 0 {
		g.initSlot(g.randSlot())
		return
	}
	w := g.initializedSlot()
	dst := g.scratchReg()
	g.b.Load(dst, R10, slotOff(w))
	g.st.regs[dst] = genReg{kind: rkScalar}
}

// genPointerWalk exercises pointer arithmetic: derive a stack pointer from
// R10, move it around with constant add/sub, and access through it.
func (g *progGen) genPointerWalk() {
	r := g.scratchReg()
	g.b.MovReg(r, R10)
	off := int64(0)
	for hops := g.rng.Intn(3) + 1; hops > 0; hops-- {
		d := int64(8 * (g.rng.Intn(StackSize/8) + 1))
		if g.rng.Intn(2) == 0 && off-d >= -StackSize {
			g.b.Sub(r, d)
			off -= d
		} else if off+d <= 0 {
			g.b.Add(r, d)
			off += d
		}
	}
	if off > -8 { // need room for one 8-byte access below R10
		g.b.Sub(r, 8)
		off -= 8
	}
	g.st.regs[r] = genReg{kind: rkPtrStack, off: off}
	w := int(off+StackSize) / 8
	if g.rng.Intn(2) == 0 {
		// Reserve r so scalarReg's init fallback cannot clobber the
		// pointer we are about to store through.
		g.reserved[r] = true
		src := g.scalarReg()
		g.reserved[r] = false
		g.b.Store(r, 0, src)
		g.st.stackInit[w] = true
	} else if g.st.stackInit[w] {
		dst := g.scratchReg()
		g.b.Load(dst, r, 0)
		g.st.regs[dst] = genReg{kind: rkScalar}
	}
}

// genBranch emits an if/else over a scalar, generating both arms and
// merging the mirrored state the way the verifier joins them. Every jump
// is conditional, so the then arm leaves through a second one over the
// else arm, and the else arm is entered from either arm's state.
func (g *progGen) genBranch() {
	cond := g.scalarReg()
	lElse, lEnd := g.label("else"), g.label("end")
	jumps := []func(Reg, int64, string) *Builder{g.b.Jeq, g.b.Jne, g.b.Jgt, g.b.Jge, g.b.Jle}
	jumps[g.rng.Intn(len(jumps))](cond, g.smallImm(), lElse)

	g.depth++
	pre := g.st
	for i := g.rng.Intn(3) + 1; i > 0; i-- {
		g.genLinearStep()
	}
	cond = g.scalarReg()
	jumps[g.rng.Intn(len(jumps))](cond, g.smallImm(), lEnd)
	thenSt := g.st
	g.b.Label(lElse)
	g.st = mergeGenState(pre, thenSt)
	for i := g.rng.Intn(3); i > 0; i-- {
		g.genLinearStep()
	}
	g.b.Label(lEnd)
	g.st = mergeGenState(thenSt, g.st)
	g.depth--
}

// genLinearStep emits a construct safe inside branch arms: no nested
// control flow.
func (g *progGen) genLinearStep() {
	switch g.rng.Intn(4) {
	case 0:
		g.genMovImm()
	case 1:
		g.genALU()
	case 2:
		g.genStackStoreLoad()
	default:
		g.genSimpleHelper()
	}
}

// genSimpleHelper calls one of the scalar-argument helpers.
func (g *progGen) genSimpleHelper() {
	type h struct {
		id    int64
		nargs int
	}
	hs := []h{
		{HelperGetPID, 0}, {HelperKtime, 0}, {HelperGetArg, 1},
		{HelperReadIOAC, 1}, {HelperReadSock, 1}, {HelperReadCounter, 2},
	}
	pick := hs[g.rng.Intn(len(hs))]
	argRegs := []Reg{R1, R2, R3, R4, R5}
	for i := 0; i < pick.nargs; i++ {
		g.b.Mov(argRegs[i], int64(g.rng.Intn(6)))
		g.st.regs[argRegs[i]] = genReg{kind: rkScalar}
	}
	g.b.Call(pick.id)
	g.helperClobber()
	g.st.regs[R0] = genReg{kind: rkScalar}
}

func (g *progGen) helperClobber() {
	for _, r := range []Reg{R1, R2, R3, R4, R5} {
		g.st.regs[r] = genReg{}
	}
}

// mapAndKey picks a keyed map and prepares the key slot, returning the map
// index, key word, and key size.
func (g *progGen) mapAndKey() (mapIdx, keyWord, keySize int) {
	switch g.rng.Intn(3) {
	case 0:
		mapIdx, keySize = genMapHash, 8
	case 1:
		mapIdx, keySize = genMapArray, 8
	default:
		mapIdx, keySize = genMapPerTask, 8
	}
	keyWord = g.rng.Intn(StackSize/8 - 1)
	// Array/per-task keys index small spaces; keep values small so lookups
	// sometimes hit.
	g.b.StoreImm(R10, slotOff(keyWord), int64(g.rng.Intn(8)))
	g.st.stackInit[keyWord] = true
	return mapIdx, keyWord, keySize
}

func (g *progGen) emitStackPtr(dst Reg, w int) {
	g.b.MovReg(dst, R10).Sub(dst, int64(StackSize-8*w))
	g.st.regs[dst] = genReg{kind: rkPtrStack, off: int64(8*w) - StackSize}
}

// genMapLookup emits lookup + null check + access through the value
// pointer, the core pattern of every Collector program.
func (g *progGen) genMapLookup() {
	mapIdx, keyWord, _ := g.mapAndKey()
	g.b.LoadMapPtr(R1, mapIdx)
	g.emitStackPtr(R2, keyWord)
	g.b.Call(HelperMapLookup)
	g.helperClobber()

	lNull := g.label("null")
	g.b.Jeq(R0, 0, lNull)
	// Non-null arm: read and write through the value pointer.
	valSize := int64(16) // hash/array/per-task value sizes in the fuzz table
	tmp := g.scratchReg()
	off := int32(8 * g.rng.Intn(int(valSize/8)))
	g.b.Load(tmp, R0, off)
	g.b.Add(tmp, 1)
	g.b.Store(R0, off, tmp)
	g.b.Label(lNull)
	// Join: R0 is a scalar 0 on one path and a value pointer on the other.
	g.st.regs[R0] = genReg{}
	g.st.regs[tmp] = genReg{}
}

func (g *progGen) genMapUpdate() {
	mapIdx, keyWord, _ := g.mapAndKey()
	valWord := g.rng.Intn(StackSize/8 - 2)
	g.initRange(valWord, 2) // 16-byte values = 2 words
	g.b.LoadMapPtr(R1, mapIdx)
	g.emitStackPtr(R2, keyWord)
	g.emitStackPtr(R3, valWord)
	g.b.Call(HelperMapUpdate)
	g.helperClobber()
	g.st.regs[R0] = genReg{kind: rkScalar}
}

func (g *progGen) genPerfOutput() {
	n := g.rng.Intn(4) + 1
	w := g.rng.Intn(StackSize/8 - n)
	g.initRange(w, n)
	// Alternate between the one-CPU and the four-CPU ring set.
	ring := int(genMapRing)
	if g.rng.Intn(2) == 1 {
		ring = genMapPerCPU
	}
	g.b.LoadMapPtr(R1, ring)
	g.emitStackPtr(R2, w)
	g.b.Mov(R3, int64(8*n))
	g.st.regs[R3] = genReg{kind: rkScalar}
	g.b.Call(HelperPerfOutput)
	g.helperClobber()
	g.st.regs[R0] = genReg{kind: rkScalar}
}

// --- raw instruction stream wire codec -------------------------------------
//
// Fuzz corpora store programs as flat byte streams so go-fuzz mutation
// operates on something meaningful. One instruction is 20 little-endian
// bytes: op, dst, src, pad, off int32, 4 reserved bytes, imm int64. The
// reserved bytes once held a loop bound; they stay so that checked-in
// corpora replay.

// insnWireBytes is the encoded size of one instruction.
const insnWireBytes = 20

// maxDecodedInsns caps decodeInsns output so fuzz inputs stay fast.
const maxDecodedInsns = 512

// encodeInsns flattens an instruction slice to the fuzz wire form.
func encodeInsns(insns []Insn) []byte {
	out := make([]byte, 0, len(insns)*insnWireBytes)
	var rec [insnWireBytes]byte
	for _, in := range insns {
		rec[0] = byte(in.Op)
		rec[1] = byte(in.Dst)
		rec[2] = byte(in.Src)
		rec[3] = 0
		binary.LittleEndian.PutUint32(rec[4:], uint32(in.Off))
		binary.LittleEndian.PutUint64(rec[12:], uint64(in.Imm))
		out = append(out, rec[:]...)
	}
	return out
}

// decodeInsns parses the fuzz wire form, ignoring any trailing partial
// record. It never rejects: malformed fields become instructions the
// verifier must reject (that is the point).
func decodeInsns(data []byte) []Insn {
	n := len(data) / insnWireBytes
	if n > maxDecodedInsns {
		n = maxDecodedInsns
	}
	insns := make([]Insn, n)
	for i := 0; i < n; i++ {
		rec := data[i*insnWireBytes:]
		insns[i] = Insn{
			Op:  Op(rec[0]),
			Dst: Reg(rec[1]),
			Src: Reg(rec[2]),
			Off: int32(binary.LittleEndian.Uint32(rec[4:])),
			Imm: int64(binary.LittleEndian.Uint64(rec[12:])),
		}
	}
	return insns
}

// mutateInsns applies a deterministic sequence of small mutations driven
// by data: every 4 bytes select a position and a tweak (opcode, register,
// offset, immediate, duplicate, delete; one tweak is reserved and does
// nothing). The result usually no
// longer satisfies the generator's validity argument — which is what makes
// it a useful verifier input.
func mutateInsns(insns []Insn, data []byte) []Insn {
	out := append([]Insn(nil), insns...)
	// Cap the number of applied mutations: unbounded fuzz inputs would
	// otherwise make the duplicate action quadratic in len(data).
	if len(data) > 4*256 {
		data = data[:4*256]
	}
	for i := 0; i+4 <= len(data); i += 4 {
		if len(out) == 0 {
			break
		}
		pos := int(data[i+1]) % len(out)
		val := int64(int16(uint16(data[i+2]) | uint16(data[i+3])<<8))
		switch data[i] % 8 {
		case 0:
			out[pos].Op = Op(byte(val))
		case 1:
			out[pos].Dst = Reg(byte(val) % 16)
		case 2:
			out[pos].Src = Reg(byte(val) % 16)
		case 3:
			out[pos].Off = int32(val)
		case 4:
			out[pos].Imm = val
		case 5: // reserved, so older corpora keep their mutations
		case 6: // duplicate an instruction in place
			if len(out) < maxDecodedInsns {
				out = append(out[:pos+1], out[pos:]...)
			}
		case 7: // delete an instruction
			out = append(out[:pos], out[pos+1:]...)
		}
	}
	return out
}
