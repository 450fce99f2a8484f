package tscout

import (
	"fmt"

	"tscout/internal/bpf"
	"tscout/internal/kernel"
)

// Collector is the kernel-space component generated for one subsystem
// (paper §3.1-3.2): three verified BPF programs (BEGIN, END, FEATURES)
// sharing a set of maps. BEGIN pushes an OU invocation entry holding a
// snapshot of every enabled probe; END computes metric deltas into that
// entry; FEATURES pops the entry, packages features and metrics into a
// sample, and submits it to the perf ring buffer for the Processor.
//
// Recursion (an OU re-entering before its END, §5.2) is handled by keying
// entries on (task generation, depth); marker-order violations reset the
// per-task depth and bump an error counter (the strict state machine of
// §5.1).
type Collector struct {
	Subsystem SubsystemID
	Resources ResourceSet

	Begin    *bpf.LoadedProgram
	End      *bpf.LoadedProgram
	Features *bpf.LoadedProgram

	// Ring is the subsystem's per-CPU perf ring set: one bounded ring per
	// simulated CPU, with perf_event_output routed by the submitting
	// task's current CPU (the real perf buffer is likewise per-CPU).
	Ring    *bpf.PerCPURing
	entries *bpf.HashMap
	depth   *bpf.PerTaskMap
	errors  *bpf.ArrayMap
}

// CollectorConfig is the single codegen configuration surface: it sizes
// the per-CPU ring set.
type CollectorConfig struct {
	// NumCPUs is the number of per-CPU rings to create (one per simulated
	// CPU); values below 1 are clamped to 1.
	NumCPUs int
	// PerCPUCapacity bounds each individual CPU ring in samples; values
	// below 1 are clamped to 1.
	PerCPUCapacity int
}

// CollectorJITStats aggregates per-program compiled sizes and
// execution-engine dispatch counts for one Collector; surfaced through ProcessorStats and
// `tsctl stats`.
type CollectorJITStats struct {
	Begin    bpf.ProgramJITStats
	End      bpf.ProgramJITStats
	Features bpf.ProgramJITStats
}

// CompiledPrograms returns how many of the three programs are deployed;
// every deployed program runs compiled, and has at least one instruction.
func (s CollectorJITStats) CompiledPrograms() int {
	n := 0
	for _, p := range []bpf.ProgramJITStats{s.Begin, s.End, s.Features} {
		if p.Insns > 0 {
			n++
		}
	}
	return n
}

// RuntimeFaults returns the collector-wide runtime fault count. Verified
// programs should never fault; a nonzero value here is a verifier or JIT
// bug and is rendered prominently by `tsctl stats`.
func (s CollectorJITStats) RuntimeFaults() int64 {
	return s.Begin.RuntimeFaults + s.End.RuntimeFaults + s.Features.RuntimeFaults
}

// JITStats snapshots the three programs' compiled sizes and dispatch
// counters.
func (c *Collector) JITStats() CollectorJITStats {
	return CollectorJITStats{
		Begin:    c.Begin.JITStats(),
		End:      c.End.JITStats(),
		Features: c.Features.JITStats(),
	}
}

// RuntimeFaults returns the total swallowed-by-Attach runtime faults across
// the collector's three programs.
func (c *Collector) RuntimeFaults() int64 {
	return c.Begin.RuntimeFaults() + c.End.RuntimeFaults() + c.Features.RuntimeFaults()
}

// NamedProgram pairs a generated (unloaded) program with its marker name;
// `tsctl vet` verifies and lints these without deploying anything.
type NamedProgram struct {
	Name string
	Prog *bpf.Program
}

// CollectorPrograms runs code generation for one subsystem × resource set
// and returns the three marker programs without verifying or loading them.
func CollectorPrograms(sub SubsystemID, res ResourceSet) []NamedProgram {
	c := collectorSkeleton(sub, res, 1, 8)
	return []NamedProgram{
		{"begin", c.genBegin()},
		{"end", c.genEnd()},
		{"features", c.genFeatures()},
	}
}

// Collector entry layout (13 u64 words): the OU invocation record pushed
// at BEGIN and completed at END. Words entElapsed..entSockS are metrics
// mwElapsed..mwNetSend in order; FEATURES copies them as one run.
const (
	entWords   = 13
	entBytes   = entWords * 8
	entOU      = 0  // OU id
	entState   = 1  // see entState* below
	entElapsed = 2  // begin ktime, replaced by elapsed at END
	entCounter = 3  // 5 words: normalized counters
	entIOACR   = 8  // ioac read bytes
	entIOACW   = 9  // ioac write bytes
	entSockR   = 10 // socket bytes received
	entSockS   = 11 // socket bytes sent
	entCPU     = 12 // CPU the BEGIN snapshot was taken on
)

// entState values. Torn entries are END's verdict that the task migrated
// mid-OU: the BEGIN snapshot and the END read come from different per-CPU
// counter contexts, so no delta is computed; FEATURES pops the entry into
// the TornMigration orphan bucket instead of submitting a corrupt sample.
const (
	entStateBegun = 0
	entStateEnded = 1
	entStateTorn  = 2
)

// Error/orphan counter slots in the Collector's errors array map. Slots
// written by the generated programs (everything except slotStaleReaped) are
// only ever touched from marker context — the task hitting the tracepoint —
// while slotStaleReaped belongs to the user-space reaper the Processor runs
// at the start of each drain.
const (
	slotViolations      = 0 // marker state-machine violations (paper §5.1)
	slotBeginWithoutEnd = 1 // begun entries discarded before completing
	slotTornMigration   = 2 // entries torn by mid-OU CPU migration
	slotStaleReaped     = 3 // entries reaped after their task died
	slotEarlyErrors     = 4 // depth-slot lookup failures (unreachable)
	slotEndWithoutBegin = 5 // END markers arriving with no OU in flight
	numErrorSlots       = 6
)

// Stack frame offsets shared by the generated programs.
const (
	offKey     = -8  // map key scratch
	offScratch = -16 // normalization scratch (enabled)
	offScratc2 = -24 // normalization scratch (running)
	offGen     = -32 // task generation spill (error paths rebuild keys from it)
	offEntry   = -136
	// The FEATURES program builds the outgoing sample at offSample; the
	// sample is always submitted at its maximum size with nFeatures
	// indicating how many feature words are valid (the verifier requires
	// a compile-time-constant perf_event_output size). It overlaps the
	// BEGIN/END-only entry scratch area; FEATURES never touches offEntry.
	offSample = -256 - 48
)

// collectorSkeleton builds a Collector's map set without generating or
// loading any programs.
func collectorSkeleton(sub SubsystemID, res ResourceSet, numCPUs, perCPUCap int) *Collector {
	return &Collector{
		Subsystem: sub,
		Resources: res,
		Ring:      bpf.NewPerCPURing("tscout/"+sub.String()+"/ring", numCPUs, perCPUCap),
		entries:   bpf.NewHashMap("tscout/"+sub.String()+"/entries", entBytes, 4096),
		depth:     bpf.NewPerTaskMap("tscout/"+sub.String()+"/depth", 8),
		errors:    bpf.NewArrayMap("tscout/"+sub.String()+"/errors", 8, numErrorSlots),
	}
}

// GenerateCollector runs TScout's Codegen for one subsystem: it emits the
// three marker programs tailored to the subsystem's resource set (probes
// for unchecked resources are simply not compiled in, Fig. 3), sizes the
// per-CPU ring set from cfg, and loads the programs through the BPF
// verifier, which JIT-compiles each one. Codegen emits each program in its final form — no store it
// makes is dead (`tsctl vet` lints every one) — so nothing rewrites a
// program between codegen and the verifier.
func GenerateCollector(sub SubsystemID, res ResourceSet, cfg CollectorConfig) (*Collector, error) {
	c := collectorSkeleton(sub, res, cfg.NumCPUs, cfg.PerCPUCapacity)
	load := func(name string, p *bpf.Program) (*bpf.LoadedProgram, error) {
		lp, err := bpf.Load(p, 0)
		if err != nil {
			return nil, fmt.Errorf("%s program: %w", name, err)
		}
		return lp, nil
	}
	var err error
	if c.Begin, err = load("BEGIN", c.genBegin()); err != nil {
		return nil, err
	}
	if c.End, err = load("END", c.genEnd()); err != nil {
		return nil, err
	}
	if c.Features, err = load("FEATURES", c.genFeatures()); err != nil {
		return nil, err
	}
	return c, nil
}

// Attach installs the three programs on their tracepoints.
func (c *Collector) Attach(begin, end, features *kernel.Tracepoint) {
	c.Begin.Attach(begin)
	c.End.Attach(end)
	c.Features.Attach(features)
}

// errorSlot reads one counter slot from the errors array map.
func (c *Collector) errorSlot(slot uint64) int64 {
	v := c.errors.Lookup(bpf.U64Key(slot))
	if v == nil {
		return 0
	}
	return int64(bpf.U64(v))
}

// addToErrorSlot bumps a counter slot from user space. Only the reaper uses
// it, and only for slotStaleReaped — the generated programs own the other
// slots, and the writer partition is what keeps the lockless array map safe.
func (c *Collector) addToErrorSlot(slot uint64, n int64) {
	v := c.errors.Lookup(bpf.U64Key(slot))
	if v == nil || n == 0 {
		return
	}
	bpf.PutU64(v, bpf.U64(v)+uint64(n))
}

// ErrorCount returns marker state-machine violations detected in kernel
// space (paper §5.1). Orphan-class counters are separate — an orphan is a
// correctly-detected loss, not a protocol violation.
func (c *Collector) ErrorCount() int64 {
	return c.errorSlot(slotViolations) + c.errorSlot(slotEarlyErrors)
}

// OrphanCounts breaks out the OU invocations that were detected as lost or
// corrupt and discarded in kernel space rather than archived. Every begun
// entry ends in exactly one of: a submitted sample, BeginWithoutEnd,
// TornMigration, or StaleReaped — the accounting identity the chaos harness
// asserts.
type OrphanCounts struct {
	// BeginWithoutEnd counts begun OU entries discarded before an END
	// completed them: marker-state resets that tore down in-flight
	// entries, BEGIN pushes the entries map rejected, and depth-overflow
	// BEGINs that never pushed at all.
	BeginWithoutEnd int64
	// EndWithoutBegin counts END markers that arrived with no OU in
	// flight (a dropped or never-recorded BEGIN).
	EndWithoutBegin int64
	// TornMigration counts OU entries whose task migrated CPUs between
	// BEGIN and END: the two per-CPU counter contexts are unrelated, so
	// the sample is discarded instead of archived with absurd deltas.
	TornMigration int64
	// StaleReaped counts in-flight entries reaped after their task
	// generation died mid-OU (kill between BEGIN and FEATURES).
	StaleReaped int64
}

// Total sums every orphan class.
func (o OrphanCounts) Total() int64 {
	return o.BeginWithoutEnd + o.EndWithoutBegin + o.TornMigration + o.StaleReaped
}

// Add accumulates other into o.
func (o *OrphanCounts) Add(other OrphanCounts) {
	o.BeginWithoutEnd += other.BeginWithoutEnd
	o.EndWithoutBegin += other.EndWithoutBegin
	o.TornMigration += other.TornMigration
	o.StaleReaped += other.StaleReaped
}

// Orphans returns the Collector's orphan-class counters.
func (c *Collector) Orphans() OrphanCounts {
	return OrphanCounts{
		BeginWithoutEnd: c.errorSlot(slotBeginWithoutEnd),
		EndWithoutBegin: c.errorSlot(slotEndWithoutBegin),
		TornMigration:   c.errorSlot(slotTornMigration),
		StaleReaped:     c.errorSlot(slotStaleReaped),
	}
}

// ReapStale sweeps the in-flight entries map for OUs begun by task
// generations that are no longer alive and deletes them into the
// StaleReaped orphan bucket, along with the dead generations' depth slots.
// A reused pid never resurrects a dead task's entry: entries are keyed by
// generation, and the reaper is what retires them. The Processor reaps at
// the start of every drain.
func (c *Collector) ReapStale(alive func(gen uint64) bool) int64 {
	if alive == nil {
		return 0
	}
	// Range visits the tables in their slot order and must not delete, so
	// both sweeps collect first and delete after.
	var stale [][]byte
	c.entries.Range(func(key, _ []byte) bool {
		if !alive(bpf.U64(key) >> 8) {
			k := make([]byte, len(key))
			copy(k, key)
			stale = append(stale, k)
		}
		return true
	})
	var reaped int64
	for _, k := range stale {
		if c.entries.Delete(k) {
			reaped++
		}
	}
	var deadGens []uint64
	c.depth.Range(func(gen uint64, _ []byte) bool {
		if !alive(gen) {
			deadGens = append(deadGens, gen)
		}
		return true
	})
	for _, g := range deadGens {
		c.depth.Delete(bpf.U64Key(g))
	}
	c.addToErrorSlot(slotStaleReaped, reaped)
	return reaped
}

// prologue emits the shared preamble: R6 = task generation, R7 = per-task
// depth slot pointer, R8 = depth, with the generation also spilled to
// offGen so error paths can rebuild entry keys after R6 is repurposed.
// Collector state is keyed by generation, not pid: pids recycle, and a new
// task reusing a dead task's pid must never pair its markers with the dead
// task's in-flight entries. errLabel receives control when the depth slot
// lookup fails (cannot happen at runtime for a per-task map, but the
// verifier rightly demands the check). The JIT runs the whole preamble —
// generation, spills, depth-slot lookup, null check, move and load — as one
// micro-op (bpf's matchFrame).
func (c *Collector) prologue(b *bpf.Builder, depthIdx int, errLabel string) {
	b.Call(bpf.HelperGetTaskGen).
		MovReg(bpf.R6, bpf.R0).
		Store(bpf.R10, offGen, bpf.R6).
		Store(bpf.R10, offKey, bpf.R6).
		LoadMapPtr(bpf.R1, depthIdx).
		MovReg(bpf.R2, bpf.R10).Sub(bpf.R2, 8).
		Call(bpf.HelperMapLookup).
		Jeq(bpf.R0, 0, errLabel).
		MovReg(bpf.R7, bpf.R0).
		Load(bpf.R8, bpf.R7, 0)
}

// emitEntryKey computes the entries-map key (gen<<8 | depth+adjust) into
// R9 and spills it to the key slot; the JIT folds it into the map call
// that follows.
func emitEntryKey(b *bpf.Builder, adjust int64) {
	b.MovReg(bpf.R9, bpf.R6).
		Lsh(bpf.R9, 8).
		AddReg(bpf.R9, bpf.R8)
	if adjust != 0 {
		b.Add(bpf.R9, adjust)
	}
	b.Store(bpf.R10, offKey, bpf.R9)
}

// emitNormCounter emits the §4.1 normalization for one counter into a
// stack slot: normalized = raw * (enabled<<10 / running) >> 10, computed
// entirely in kernel space so multiplexed PMU readings are corrected
// before they ever reach user space.
func emitNormCounter(b *bpf.Builder, ctr kernel.Counter, dstOff int32) {
	b.Mov(bpf.R1, int64(ctr)).Mov(bpf.R2, bpf.CounterPartEnabled).
		Call(bpf.HelperReadCounter).
		Store(bpf.R10, offScratch, bpf.R0).
		Mov(bpf.R1, int64(ctr)).Mov(bpf.R2, bpf.CounterPartRunning).
		Call(bpf.HelperReadCounter).
		Store(bpf.R10, offScratc2, bpf.R0).
		Mov(bpf.R1, int64(ctr)).Mov(bpf.R2, bpf.CounterPartRaw).
		Call(bpf.HelperReadCounter).
		Load(bpf.R3, bpf.R10, offScratch).
		Lsh(bpf.R3, 10).
		Load(bpf.R4, bpf.R10, offScratc2).
		DivReg(bpf.R3, bpf.R4). // running==0 -> 0 (BPF division semantics)
		MulReg(bpf.R0, bpf.R3).
		Rsh(bpf.R0, 10).
		Store(bpf.R10, dstOff, bpf.R0)
}

// emitProbeSnapshot fills entry words [entCounter..entSockS] at base with
// the current probe readings. The words of unmonitored resources are
// zero-filled first, so they read as zero with no per-resource branching;
// enabled probes then store their own words.
func (c *Collector) emitProbeSnapshot(b *bpf.Builder, base int32) {
	for w := entCounter; w <= entSockS; w++ {
		if !c.probesWord(w) {
			b.StoreImm(bpf.R10, base+int32(w)*8, 0)
		}
	}
	if c.Resources.CPU {
		for i, ctr := range kernel.AllCounters {
			emitNormCounter(b, ctr, base+int32(entCounter+i)*8)
		}
	}
	if c.Resources.Disk {
		b.Mov(bpf.R1, bpf.IOACReadBytes).Call(bpf.HelperReadIOAC).
			Store(bpf.R10, base+entIOACR*8, bpf.R0).
			Mov(bpf.R1, bpf.IOACWriteBytes).Call(bpf.HelperReadIOAC).
			Store(bpf.R10, base+entIOACW*8, bpf.R0)
	}
	if c.Resources.Network {
		b.Mov(bpf.R1, bpf.SockBytesReceived).Call(bpf.HelperReadSock).
			Store(bpf.R10, base+entSockR*8, bpf.R0).
			Mov(bpf.R1, bpf.SockBytesSent).Call(bpf.HelperReadSock).
			Store(bpf.R10, base+entSockS*8, bpf.R0)
	}
}

// probesWord reports whether an enabled probe stores entry word w.
func (c *Collector) probesWord(w int) bool {
	switch {
	case w < entIOACR:
		return c.Resources.CPU
	case w < entSockR:
		return c.Resources.Disk
	default:
		return c.Resources.Network
	}
}

// emitSlotAddReg emits "errors[slot] += R6" (R6 must hold the amount; the
// key scratch slot is clobbered). skipLabel must be unique per call site.
func emitSlotAddReg(b *bpf.Builder, errIdx int, slot int64, skipLabel string) {
	b.StoreImm(bpf.R10, offKey, slot).
		LoadMapPtr(bpf.R1, errIdx).
		MovReg(bpf.R2, bpf.R10).Sub(bpf.R2, 8).
		Call(bpf.HelperMapLookup).
		Jeq(bpf.R0, 0, skipLabel).
		Load(bpf.R3, bpf.R0, 0).
		AddReg(bpf.R3, bpf.R6).
		Store(bpf.R0, 0, bpf.R3).
		Label(skipLabel)
}

// emitSlotInc emits "errors[slot] += 1" (clobbers the key scratch slot).
// skipLabel must be unique per call site.
func emitSlotInc(b *bpf.Builder, errIdx int, slot int64, skipLabel string) {
	b.StoreImm(bpf.R10, offKey, slot).
		LoadMapPtr(bpf.R1, errIdx).
		MovReg(bpf.R2, bpf.R10).Sub(bpf.R2, 8).
		Call(bpf.HelperMapLookup).
		Jeq(bpf.R0, 0, skipLabel).
		Load(bpf.R3, bpf.R0, 0).
		Add(bpf.R3, 1).
		Store(bpf.R0, 0, bpf.R3).
		Label(skipLabel)
}

// emitResetEpilogue emits the marker-state-machine reset tail (paper §5.1):
// zero the per-task depth, delete every in-flight entry the task's
// generation may have stacked (each deleted entry is a begun OU that will
// now never complete, counted into the BeginWithoutEnd orphan bucket along
// with extraOrphans for callers whose erroring marker itself abandoned a
// BEGIN), and bump the violations counter. The old code reset the depth but
// leaked the stacked entries in the map — with gen-keyed entries nothing
// could ever pair with them again, so they would otherwise sit there
// forever and break the submitted-vs-orphaned accounting identity.
func (c *Collector) emitResetEpilogue(b *bpf.Builder, entriesIdx, errIdx int,
	extraOrphans int64, errLabel, doneLabel string) {
	b.Label(errLabel)
	b.Mov(bpf.R3, 0).Store(bpf.R7, 0, bpf.R3)
	// Delete-loop: try every possible depth key for this generation (a
	// miss deletes nothing and returns 0). R6 accumulates the count of
	// entries actually removed; the generation is reloaded from its spill
	// slot because END/FEATURES repurpose R6 for the entry pointer.
	b.Mov(bpf.R6, extraOrphans)
	for d := int64(0); d < MaxOUDepth; d++ {
		b.Load(bpf.R9, bpf.R10, offGen).
			Lsh(bpf.R9, 8).
			Add(bpf.R9, d).
			Store(bpf.R10, offKey, bpf.R9).
			LoadMapPtr(bpf.R1, entriesIdx).
			MovReg(bpf.R2, bpf.R10).Sub(bpf.R2, 8).
			Call(bpf.HelperMapDelete).
			AddReg(bpf.R6, bpf.R0)
	}
	emitSlotAddReg(b, errIdx, slotBeginWithoutEnd, errLabel+"_orph")
	emitSlotInc(b, errIdx, slotViolations, doneLabel)
	b.Mov(bpf.R0, 1).
		Exit()
}

// emitErrorEpilogue emits the early-error tail for failures before the
// depth pointer is live (the depth-slot lookup itself failing): count into
// the given slot and bail.
func (c *Collector) emitErrorEpilogue(b *bpf.Builder, errIdx int, slot int64,
	errLabel, doneLabel string) {
	b.Label(errLabel)
	emitSlotInc(b, errIdx, slot, doneLabel)
	b.Mov(bpf.R0, 1).
		Exit()
}

// genBegin generates the BEGIN-marker program: push an OU invocation
// entry with a snapshot of the enabled probes.
func (c *Collector) genBegin() *bpf.Program {
	b := bpf.NewBuilder("tscout/" + c.Subsystem.String() + "/begin")
	entriesIdx := b.AddMap(c.entries)
	depthIdx := b.AddMap(c.depth)
	errIdx := b.AddMap(c.errors)

	c.prologue(b, depthIdx, "err_early")
	b.Jge(bpf.R8, MaxOUDepth, "err_reset")

	// Entry word 0: OU id from the tracepoint argument.
	b.Mov(bpf.R1, 0).Call(bpf.HelperGetArg).
		Store(bpf.R10, offEntry+entOU*8, bpf.R0).
		// Word 1: state = begun.
		StoreImm(bpf.R10, offEntry+entState*8, entStateBegun)
	// Word 2: begin timestamp.
	b.Call(bpf.HelperKtime).
		Store(bpf.R10, offEntry+entElapsed*8, bpf.R0)
	c.emitProbeSnapshot(b, offEntry)
	// Word 12: the CPU this snapshot was taken on. END compares against
	// its own CPU — a mismatch means the task migrated mid-OU and the two
	// snapshots difference unrelated per-CPU counter contexts.
	b.Call(bpf.HelperGetCPU).
		Store(bpf.R10, offEntry+entCPU*8, bpf.R0)

	// entries[gen<<8|depth] = entry. A rejected push (map full) abandons
	// this BEGIN: depth stays put and the loss is counted, because an
	// unrecorded BEGIN can never produce a sample.
	emitEntryKey(b, 0)
	b.LoadMapPtr(bpf.R1, entriesIdx).
		MovReg(bpf.R2, bpf.R10).Sub(bpf.R2, 8).
		MovReg(bpf.R3, bpf.R10).Sub(bpf.R3, -offEntry).
		Call(bpf.HelperMapUpdate).
		Jne(bpf.R0, 0, "push_fail")

	// depth++.
	b.Add(bpf.R8, 1).
		Store(bpf.R7, 0, bpf.R8).
		Mov(bpf.R0, 0).
		Exit()

	b.Label("push_fail")
	emitSlotInc(b, errIdx, slotBeginWithoutEnd, "push_done")
	b.Mov(bpf.R0, 1).
		Exit()

	// The depth-overflow BEGIN itself never pushed an entry, so the reset
	// counts one extra orphan on top of the stacked entries it deletes.
	c.emitResetEpilogue(b, entriesIdx, errIdx, 1, "err_reset", "reset_done")
	c.emitErrorEpilogue(b, errIdx, slotEarlyErrors, "err_early", "early_done")
	return b.MustBuild()
}

// emitEntryLookup loads the top-of-stack entry pointer into R6 (consuming
// the generation there) for END/FEATURES: key = gen<<8 | depth-1. The JIT
// runs the key computation, the lookup, its null check and the move as one
// micro-op (bpf's matchFrame).
func emitEntryLookup(b *bpf.Builder, entriesIdx int, errLabel string) {
	emitEntryKey(b, -1)
	b.LoadMapPtr(bpf.R1, entriesIdx).
		MovReg(bpf.R2, bpf.R10).Sub(bpf.R2, 8).
		Call(bpf.HelperMapLookup).
		Jeq(bpf.R0, 0, errLabel).
		MovReg(bpf.R6, bpf.R0)
}

// genEnd generates the END-marker program: re-read the probes, compute
// deltas into the invocation entry, and mark it ended.
func (c *Collector) genEnd() *bpf.Program {
	b := bpf.NewBuilder("tscout/" + c.Subsystem.String() + "/end")
	entriesIdx := b.AddMap(c.entries)
	depthIdx := b.AddMap(c.depth)
	errIdx := b.AddMap(c.errors)

	c.prologue(b, depthIdx, "err_early")
	b.Jeq(bpf.R8, 0, "err_ewb") // END without BEGIN
	emitEntryLookup(b, entriesIdx, "err_reset")

	// State must be "begun" and the OU id must match the marker's.
	b.Load(bpf.R1, bpf.R6, entState*8).
		Jne(bpf.R1, entStateBegun, "err_reset").
		Mov(bpf.R1, 0).Call(bpf.HelperGetArg).
		Load(bpf.R2, bpf.R6, entOU*8).
		JneReg(bpf.R0, bpf.R2, "err_reset")

	// Migration check: if the task is no longer on the CPU the BEGIN
	// snapshot was taken on, the delta would difference two unrelated
	// per-CPU counter contexts. Mark the entry torn instead of computing
	// garbage; FEATURES pops it into the TornMigration bucket, so nesting
	// stays intact and nothing corrupt is submitted.
	b.Call(bpf.HelperGetCPU).
		Load(bpf.R1, bpf.R6, entCPU*8).
		JneReg(bpf.R0, bpf.R1, "torn")

	// Elapsed time.
	b.Call(bpf.HelperKtime).
		Load(bpf.R2, bpf.R6, entElapsed*8).
		SubReg(bpf.R0, bpf.R2).
		Store(bpf.R6, entElapsed*8, bpf.R0)

	// Current snapshot into the scratch entry area, then delta each word.
	c.emitProbeSnapshot(b, offEntry)
	for w := entCounter; w <= entSockS; w++ {
		b.Load(bpf.R1, bpf.R10, offEntry+int32(w)*8). // current
								Load(bpf.R2, bpf.R6, int32(w)*8). // begin
								SubReg(bpf.R1, bpf.R2).
								Store(bpf.R6, int32(w)*8, bpf.R1)
	}

	b.StoreImm(bpf.R6, entState*8, entStateEnded).
		Mov(bpf.R0, 0).
		Exit()

	b.Label("torn")
	b.StoreImm(bpf.R6, entState*8, entStateTorn).
		Mov(bpf.R0, 0).
		Exit()

	// END with no OU in flight gets its own orphan class before the
	// common reset (a dropped or never-recorded BEGIN, not a lost entry).
	b.Label("err_ewb")
	emitSlotInc(b, errIdx, slotEndWithoutBegin, "ewb_done")
	// ...and falls through into it.
	c.emitResetEpilogue(b, entriesIdx, errIdx, 0, "err_reset", "reset_done")
	c.emitErrorEpilogue(b, errIdx, slotEarlyErrors, "err_early", "early_done")
	return b.MustBuild()
}

// genFeatures generates the FEATURES-marker program: pop the completed
// entry, merge the DBMS-provided features and user-level metrics, build
// the sample, and perf_event_output it to the Processor.
//
// Tracepoint arguments: arg0 = OU id (or FusedOUID for vectorized feature
// samples, §5.2), arg1 = user-level memory probe bytes (§4.2),
// arg2 = feature word count, arg3.. = feature words.
func (c *Collector) genFeatures() *bpf.Program {
	b := bpf.NewBuilder("tscout/" + c.Subsystem.String() + "/features")
	entriesIdx := b.AddMap(c.entries)
	depthIdx := b.AddMap(c.depth)
	errIdx := b.AddMap(c.errors)
	ringIdx := b.AddMap(c.Ring)

	c.prologue(b, depthIdx, "err_early")
	b.Jeq(bpf.R8, 0, "err_reset")

	// Sample word 2 (flags) is zero; every other fixed word is stored
	// below, on the path to perf_event_output.
	b.StoreImm(bpf.R10, offSample+16, 0)

	// Sample word 1: pid. The Collector's maps are keyed by generation,
	// but the archived sample carries the familiar pid.
	b.Call(bpf.HelperGetPID).
		Store(bpf.R10, offSample+8, bpf.R0)

	emitEntryLookup(b, entriesIdx, "err_reset")

	// Entry must be in the "ended" state; "torn" entries (mid-OU CPU
	// migration, detected by END) are popped into the orphan bucket.
	b.Load(bpf.R1, bpf.R6, entState*8).
		Jeq(bpf.R1, entStateTorn, "torn_pop").
		Jne(bpf.R1, entStateEnded, "err_reset")

	// OU id check: arg0 must equal the entry's OU or be the fused marker.
	b.Mov(bpf.R1, 0).Call(bpf.HelperGetArg).
		MovReg(bpf.R9, bpf.R0).
		Load(bpf.R2, bpf.R6, entOU*8).
		JeqReg(bpf.R9, bpf.R2, "ou_ok").
		Jne(bpf.R9, int64(FusedOUID), "err_reset").
		Label("ou_ok").
		Store(bpf.R10, offSample+0, bpf.R9) // sample word 0: OU id

	// Word 3: nFeatures (bounded for the unrolled copy below).
	b.Mov(bpf.R1, 2).Call(bpf.HelperGetArg).
		MovReg(bpf.R9, bpf.R0).
		Jgt(bpf.R9, MaxFeatures, "err_reset").
		Store(bpf.R10, offSample+24, bpf.R9)

	// Metrics from the entry: words entElapsed..entSockS hold metrics
	// mwElapsed..mwNetSend in order.
	for w := entElapsed; w <= entSockS; w++ {
		b.Load(bpf.R1, bpf.R6, int32(w)*8).
			Store(bpf.R10, offSample+int32(sampleHeaderWords+mwElapsed+w-entElapsed)*8, bpf.R1)
	}
	// Memory metric from the user-level probe (arg1).
	b.Mov(bpf.R1, 1).Call(bpf.HelperGetArg).
		Store(bpf.R10, offSample+int32(sampleHeaderWords+mwAlloc)*8, bpf.R0)

	// Zero the feature area, then copy up to nFeatures argument words.
	// The copy is fully unrolled: the verifier tracks exact stack offsets,
	// so a moving-pointer loop would not verify — and the unrolled form is
	// also what BCC-era clang emitted for constant-bound loops.
	featBase := offSample + int32(sampleFixedWords)*8
	for i := 0; i < MaxFeatures; i++ {
		b.StoreImm(bpf.R10, featBase+int32(i)*8, 0)
	}
	for i := 0; i < MaxFeatures; i++ {
		b.Jle(bpf.R9, int64(i), "copy_done").
			Mov(bpf.R1, int64(3+i)).Call(bpf.HelperGetArg).
			Store(bpf.R10, featBase+int32(i)*8, bpf.R0)
	}
	b.Label("copy_done")

	// Submit the sample (fixed maximum size; nFeatures bounds validity).
	b.LoadMapPtr(bpf.R1, ringIdx).
		MovReg(bpf.R2, bpf.R10).Sub(bpf.R2, int64(-offSample)).
		Mov(bpf.R3, int64(SampleMaxBytes)).
		Call(bpf.HelperPerfOutput)

	// Pop: delete the consumed entry (its key is still in the key slot
	// from the lookup) and decrement the depth. The old code left the
	// entry in the map — a leak that gen-keying turns into a permanent
	// orphan, since no future task can ever produce its key again.
	b.LoadMapPtr(bpf.R1, entriesIdx).
		MovReg(bpf.R2, bpf.R10).Sub(bpf.R2, 8).
		Call(bpf.HelperMapDelete)
	b.Sub(bpf.R8, 1).
		Store(bpf.R7, 0, bpf.R8).
		Mov(bpf.R0, 0).
		Exit()

	// Torn pop: discard the migrated OU's entry into the TornMigration
	// bucket and unwind the depth as a normal pop would, keeping any
	// enclosing OUs intact. The entry is deleted first — the counter bump
	// reuses the key slot the delete still needs.
	b.Label("torn_pop")
	b.LoadMapPtr(bpf.R1, entriesIdx).
		MovReg(bpf.R2, bpf.R10).Sub(bpf.R2, 8).
		Call(bpf.HelperMapDelete)
	emitSlotInc(b, errIdx, slotTornMigration, "torn_done")
	b.Sub(bpf.R8, 1).
		Store(bpf.R7, 0, bpf.R8).
		Mov(bpf.R0, 1).
		Exit()

	c.emitResetEpilogue(b, entriesIdx, errIdx, 0, "err_reset", "reset_done")
	c.emitErrorEpilogue(b, errIdx, slotEarlyErrors, "err_early", "early_done")
	return b.MustBuild()
}
