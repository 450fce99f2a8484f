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
// an array, a recursion stack, a perf ring, and per-task storage.
const (
	genMapHash = iota
	genMapArray
	genMapStack
	genMapRing
	genMapPerTask
	genMapPerCPU
	numGenMaps
)

const (
	genHashValueSize = 16
	genArrayValue    = 16
	genStackValue    = 8
)

// NewGenMaps builds a fresh instance of the standard fuzz map table. Each
// fuzz iteration gets its own maps so runs replay deterministically.
func NewGenMaps() []Map {
	return []Map{
		genMapHash:    NewHashMap("fuzz/hash", genHashValueSize, 16),
		genMapArray:   NewArrayMap("fuzz/array", genArrayValue, 4),
		genMapStack:   NewStackMap("fuzz/stack", genStackValue, 4),
		genMapRing:    NewPerCPURing("fuzz/ring", 1, 32),
		genMapPerTask: NewPerTaskMap("fuzz/pertask", genHashValueSize),
		genMapPerCPU:  NewPerCPURing("fuzz/percpu", 4, 8),
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
	depth    int           // nesting depth of branch/loop constructs
	reserved [numRegs]bool // loop counters the body must not clobber
}

// GenProgram deterministically generates a valid-by-construction program
// from seed: the same (seed, steps) always yields the same program. The
// program uses the standard fuzz map table (NewGenMaps) and is built so
// that the verifier MUST accept it and the VM MUST run it to completion —
// the generator tracks a conservative mirror of the verifier's abstract
// state and only emits instructions legal in that state.
func GenProgram(seed int64, steps int) *Program {
	if steps < 1 {
		steps = 1
	}
	g := &progGen{
		rng: rand.New(rand.NewSource(seed)),
		b:   NewBuilder("fuzz/gen"),
		st:  genEntryState(),
	}
	for _, m := range NewGenMaps() {
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
// loop counter).
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
	case choice < 44:
		g.genStackStoreLoad()
	case choice < 52:
		g.genPointerWalk()
	case choice < 62:
		if g.depth < 2 {
			g.genBranch()
		} else {
			g.genALU()
		}
	case choice < 70:
		if g.depth == 0 {
			g.genLoop()
		} else {
			g.genStackStoreLoad()
		}
	case choice < 78:
		g.genSimpleHelper()
	case choice < 86:
		g.genMapLookup()
	case choice < 92:
		g.genMapUpdate()
	case choice < 96:
		g.genPerfOutput()
	default:
		g.genStackMapOp()
	}
}

func (g *progGen) genMovImm() {
	r := g.scratchReg()
	g.b.Mov(r, g.smallImm())
	g.st.regs[r] = genReg{kind: rkScalar}
}

// genALU emits one scalar ALU operation with verifier-safe operands.
func (g *progGen) genALU() {
	dst := g.scalarReg()
	ops := []Op{OpAddImm, OpSubImm, OpMulImm, OpDivImm, OpModImm, OpAndImm,
		OpOrImm, OpXorImm, OpLshImm, OpRshImm, OpArshImm, OpNeg,
		OpAddReg, OpSubReg, OpMulReg, OpAndReg, OpOrReg, OpXorReg,
		OpLshReg, OpRshReg, OpArshReg, OpDivReg, OpModReg}
	op := ops[g.rng.Intn(len(ops))]
	in := Insn{Op: op, Dst: dst}
	switch op {
	case OpNeg:
	case OpDivImm, OpModImm:
		in.Imm = int64(g.rng.Intn(1000) + 1) // never the constant zero
	case OpLshImm, OpRshImm, OpArshImm:
		in.Imm = int64(g.rng.Intn(64))
	default:
		if isRegSrc(op) {
			src := g.scalarReg()
			if op == OpDivReg || op == OpModReg {
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
// merging the mirrored state the way the verifier joins them.
func (g *progGen) genBranch() {
	cond := g.scalarReg()
	lElse, lEnd := g.label("else"), g.label("end")
	jumps := []func(Reg, int64, string) *Builder{g.b.Jeq, g.b.Jne, g.b.Jgt, g.b.Jge, g.b.Jlt, g.b.Jle}
	jumps[g.rng.Intn(len(jumps))](cond, g.smallImm(), lElse)

	g.depth++
	pre := g.st
	for i := g.rng.Intn(3) + 1; i > 0; i-- {
		g.genLinearStep()
	}
	thenSt := g.st
	g.b.Ja(lEnd)
	g.b.Label(lElse)
	g.st = pre
	for i := g.rng.Intn(3); i > 0; i-- {
		g.genLinearStep()
	}
	g.b.Label(lEnd)
	g.st = mergeGenState(thenSt, g.st)
	g.depth--
}

// genLinearStep emits a construct safe inside branch arms and loop bodies:
// no nested control flow.
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

// genLoop emits a counted loop with a declared compile-time bound (the
// §5.1 bounded-loop rule). The body is generated against a demoted state:
// only R10 and the counter survive the back-edge join, so the body must
// re-establish anything it uses — exactly what the verifier's fixpoint
// demands.
func (g *progGen) genLoop() {
	// The counter lives in a callee-saved register (helper calls in the
	// body abstractly clobber R1-R5) and is reserved so the body cannot
	// redefine it — otherwise the declared bound would be a lie and the
	// loop could spin until the runtime budget kills it.
	cnt := Reg(g.rng.Intn(4)) + R6
	for g.reserved[cnt] {
		cnt = Reg(g.rng.Intn(4)) + R6
	}
	g.reserved[cnt] = true
	defer func() { g.reserved[cnt] = false }()
	n := int64(g.rng.Intn(6) + 1)
	g.b.Mov(cnt, n)
	top := g.label("loop")
	g.b.Label(top)

	pre := g.st
	// Demote: at the loop head the verifier joins the entry state with the
	// back-edge state; registers the body redefines survive, everything
	// else must be assumed dead inside the body.
	var demoted genState
	demoted.regs[R10] = pre.regs[R10]
	demoted.regs[cnt] = genReg{kind: rkScalar}
	demoted.stackInit = pre.stackInit
	g.st = demoted

	g.depth++
	for i := g.rng.Intn(3) + 1; i > 0; i-- {
		g.genLinearStep()
	}
	g.depth--
	bodyEnd := g.st

	g.b.Sub(cnt, 1)
	g.b.JneLoop(cnt, 0, top, int32(n))

	// After the loop the verifier's state is the body applied to the
	// fixpoint loop-head state. The body-end mirror was computed from the
	// demoted entry, which under-approximates that fixpoint, so it is a
	// safe (conservative) post-state: anything it believes initialized
	// really is on every path reaching the exit edge. Registers the body
	// clobbered-then-abandoned stay uninit here even if they were live
	// before the loop — restoring pre-loop kinds for them would be
	// optimistic and generate invalid programs.
	post := bodyEnd
	post.regs[cnt] = genReg{kind: rkScalar}
	g.st = post
}

// genSimpleHelper calls one of the scalar-argument helpers.
func (g *progGen) genSimpleHelper() {
	type h struct {
		id    int64
		nargs int
	}
	hs := []h{
		{HelperGetPID, 0}, {HelperKtime, 0}, {HelperGetArg, 1},
		{HelperTracePrintk, 1}, {HelperReadIOAC, 1}, {HelperReadSock, 1},
		{HelperReadCounter, 2},
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

func (g *progGen) genStackMapOp() {
	w := g.rng.Intn(StackSize / 8)
	if g.rng.Intn(2) == 0 {
		g.initRange(w, 1)
		g.b.LoadMapPtr(R1, genMapStack)
		g.emitStackPtr(R2, w)
		g.b.Call(HelperStackPush)
	} else {
		// Pop fills its buffer only on success, so it does not count as
		// initializing the word (the verifier agrees). Pre-initialize it
		// instead: later reads stay legal, and the store→pop→load shape
		// this produces is exactly the optimizer's hardest aliasing case.
		g.initRange(w, 1)
		g.b.LoadMapPtr(R1, genMapStack)
		g.emitStackPtr(R2, w)
		g.b.Call(HelperStackPop)
	}
	g.helperClobber()
	g.st.regs[R0] = genReg{kind: rkScalar}
}

// --- raw instruction stream wire codec -------------------------------------
//
// Fuzz corpora store programs as flat byte streams so go-fuzz mutation
// operates on something meaningful. One instruction is 20 little-endian
// bytes: op, dst, src, pad, off int32, loopBound int32, imm int64.

// InsnWireBytes is the encoded size of one instruction.
const InsnWireBytes = 20

// maxDecodedInsns caps DecodeInsns output so fuzz inputs stay fast.
const maxDecodedInsns = 512

// EncodeInsns flattens an instruction slice to the fuzz wire form.
func EncodeInsns(insns []Insn) []byte {
	out := make([]byte, 0, len(insns)*InsnWireBytes)
	var rec [InsnWireBytes]byte
	for _, in := range insns {
		rec[0] = byte(in.Op)
		rec[1] = byte(in.Dst)
		rec[2] = byte(in.Src)
		rec[3] = 0
		binary.LittleEndian.PutUint32(rec[4:], uint32(in.Off))
		binary.LittleEndian.PutUint32(rec[8:], uint32(in.LoopBound))
		binary.LittleEndian.PutUint64(rec[12:], uint64(in.Imm))
		out = append(out, rec[:]...)
	}
	return out
}

// DecodeInsns parses the fuzz wire form, ignoring any trailing partial
// record. It never rejects: malformed fields become instructions the
// verifier must reject (that is the point).
func DecodeInsns(data []byte) []Insn {
	n := len(data) / InsnWireBytes
	if n > maxDecodedInsns {
		n = maxDecodedInsns
	}
	insns := make([]Insn, n)
	for i := 0; i < n; i++ {
		rec := data[i*InsnWireBytes:]
		insns[i] = Insn{
			Op:        Op(rec[0]),
			Dst:       Reg(rec[1]),
			Src:       Reg(rec[2]),
			Off:       int32(binary.LittleEndian.Uint32(rec[4:])),
			LoopBound: int32(binary.LittleEndian.Uint32(rec[8:])),
			Imm:       int64(binary.LittleEndian.Uint64(rec[12:])),
		}
	}
	return insns
}

// MutateInsns applies a deterministic sequence of small mutations driven
// by data: every 4 bytes select a position and a tweak (opcode, register,
// offset, immediate, loop bound, duplicate, delete). The result usually no
// longer satisfies the generator's validity argument — which is what makes
// it a useful verifier input.
func MutateInsns(insns []Insn, data []byte) []Insn {
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
		case 5:
			out[pos].LoopBound = int32(val)
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
