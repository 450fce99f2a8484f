package tscout

import "tscout/internal/kernel"

// User-space instrumentation costs in virtual nanoseconds. These are the
// calibration constants behind the §6.2 overhead comparison; everything
// else (syscalls, mode switches, Collector execution) is charged by the
// kernel and BPF layers from the hardware profile.
const (
	// samplingCheckNS is the per-event sampling decision all modes pay.
	samplingCheckNS = 18
	// skipMarkerNS is the cost of an unsampled marker (a branch).
	skipMarkerNS = 4
	// featureWordNS is the per-word cost of filling the feature buffer.
	featureWordNS = 10
	// userSnapshotNS is the user-mode cost of copying counter readings
	// into the probe's begin/end structs (on top of the syscalls).
	userSnapshotNS = 120
	// userHandoffNS is the user-mode cost of packaging a finished sample
	// and handing it to the Processor's queue (allocation, locking).
	userHandoffNS = 150
	// toggleSyscallExtraNS is the extra in-kernel work of the perf
	// enable/read/disable syscalls User-Toggle issues per sampled OU.
	toggleSyscallExtraNS = 150
)

// Marker is the triplet of instrumentation points a developer wraps around
// one OU (paper §3.1): Begin and End bound the OU's execution; Features
// records its input features and user-level metrics after execution. The
// Marker is cheap when the surrounding event was not sampled.
type Marker struct {
	ts  *TScout
	def *OUDef
	sub *subsystem
	// idArg is the BEGIN/END tracepoint argument list, {OU id}, built once:
	// handlers only read their args, so every task shares it.
	idArg []uint64
}

// OU returns the marker's OU definition.
func (m *Marker) OU() *OUDef { return m.def }

// Begin starts metrics collection for one OU invocation.
func (m *Marker) Begin(t *kernel.Task) {
	st := m.ts.taskStateFor(t)
	if !st.eventSampled[m.def.Subsystem] {
		t.ChargeUserNS(skipMarkerNS)
		return
	}
	switch m.ts.cfg.Mode {
	case KernelContinuous:
		t.HitTracepoint(m.sub.beginTP, m.idArg)
	case UserToggle:
		// One syscall to enable the counters for this OU.
		t.Perf().Enable(kernel.AllCounters...)
		t.Syscall(toggleSyscallExtraNS, true)
		m.userPush(st, t)
	case UserContinuous:
		// Counters are always on; snapshotting is pure user-space work
		// (the single syscall of this mode is paid at END).
		m.userPush(st, t)
	}
}

// End stops metrics collection for the innermost invocation of this OU.
func (m *Marker) End(t *kernel.Task) {
	st := m.ts.taskStateFor(t)
	if !st.eventSampled[m.def.Subsystem] {
		t.ChargeUserNS(skipMarkerNS)
		return
	}
	switch m.ts.cfg.Mode {
	case KernelContinuous:
		t.HitTracepoint(m.sub.endTP, m.idArg)
	case UserToggle:
		// Read then disable: two more syscalls (three total per OU).
		t.Syscall(toggleSyscallExtraNS, true)
		m.userEnd(st, t)
		t.Perf().DisableAll()
		t.Syscall(toggleSyscallExtraNS, true)
	case UserContinuous:
		// The mode's single syscall retrieves all counters at once.
		t.Syscall(0, true)
		m.userEnd(st, t)
	}
}

// Features records the OU's input features and the user-level memory
// probe's measurement (allocBytes, paper §4.2), completing the sample.
func (m *Marker) Features(t *kernel.Task, allocBytes int64, features ...uint64) {
	m.features(t, uint64(m.def.ID), allocBytes, features)
}

// FeaturesVector records a fused sample: one set of metrics covering
// several OUs executed together (JIT-compiled pipelines, §5.2), with a
// vector of per-OU features. Splitting metrics across the OUs happens in
// the training pipeline, not in TScout (the Processor apportions by the
// configured splitter).
func (m *Marker) FeaturesVector(t *kernel.Task, allocBytes int64, parts []FusedPart) error {
	words, err := EncodeFusedFeatures(parts)
	if err != nil {
		return err
	}
	m.features(t, uint64(FusedOUID), allocBytes, words)
	return nil
}

func (m *Marker) features(t *kernel.Task, ouWord uint64, allocBytes int64, words []uint64) {
	st := m.ts.taskStateFor(t)
	if !st.eventSampled[m.def.Subsystem] {
		t.ChargeUserNS(skipMarkerNS)
		return
	}
	// Filling the feature buffer is user-space work in every mode.
	t.ChargeUserNS(int64(len(words)+1) * featureWordNS)
	switch m.ts.cfg.Mode {
	case KernelContinuous:
		st.featArgs = append(st.featArgs[:0], ouWord, uint64(allocBytes), uint64(len(words)))
		st.featArgs = append(st.featArgs, words...)
		t.HitTracepoint(m.sub.featTP, st.featArgs)
	default:
		m.userFeatures(st, t, ouWord, allocBytes, words)
	}
}

// userPush snapshots the probes in user space and pushes an in-flight
// frame, mirroring the kernel Collector's entry stack.
func (m *Marker) userPush(st *taskState, t *kernel.Task) {
	t.ChargeUserNS(userSnapshotNS)
	f := userFrame{ou: m.def.ID, beginNS: t.Now()}
	pc := t.Perf()
	for i, c := range counterOrder {
		f.counters[i] = pc.Read(c).Normalized()
	}
	f.ioacR, f.ioacW = t.IOAC.ReadBytes, t.IOAC.WriteBytes
	f.sockR, f.sockS = t.Sock.BytesReceived, t.Sock.BytesSent
	st.userStack = append(st.userStack, f)
}

// userEnd computes metric deltas for the innermost frame, enforcing the
// marker state machine (§5.1) in user space.
func (m *Marker) userEnd(st *taskState, t *kernel.Task) {
	t.ChargeUserNS(userSnapshotNS)
	n := len(st.userStack)
	if n == 0 {
		st.userErrors++
		return
	}
	f := &st.userStack[n-1]
	if f.ou != m.def.ID || f.ended {
		st.userErrors++
		st.userStack = st.userStack[:0]
		return
	}
	pc := t.Perf()
	var cur [5]float64
	for i, c := range counterOrder {
		cur[i] = pc.Read(c).Normalized()
	}
	f.metrics = Metrics{
		ElapsedNS:      t.Now() - f.beginNS,
		Cycles:         st.counterDelta(cur[0], f.counters[0]),
		Instructions:   st.counterDelta(cur[1], f.counters[1]),
		CacheRefs:      st.counterDelta(cur[2], f.counters[2]),
		CacheMisses:    st.counterDelta(cur[3], f.counters[3]),
		RefCycles:      st.counterDelta(cur[4], f.counters[4]),
		DiskReadBytes:  st.byteDelta(t.IOAC.ReadBytes, f.ioacR),
		DiskWriteBytes: st.byteDelta(t.IOAC.WriteBytes, f.ioacW),
		NetRecvBytes:   st.byteDelta(t.Sock.BytesReceived, f.sockR),
		NetSendBytes:   st.byteDelta(t.Sock.BytesSent, f.sockS),
	}
	f.ended = true
}

// userFeatures pops the completed frame and hands the encoded sample to
// the Processor's user-space queue.
func (m *Marker) userFeatures(st *taskState, t *kernel.Task, ouWord uint64, allocBytes int64, words []uint64) {
	n := len(st.userStack)
	if n == 0 {
		st.userErrors++
		return
	}
	f := st.userStack[n-1]
	st.userStack = st.userStack[:n-1]
	if !f.ended || (uint64(f.ou) != ouWord && ouWord != uint64(FusedOUID)) {
		st.userErrors++
		st.userStack = st.userStack[:0]
		return
	}
	met := f.metrics
	met.AllocBytes = allocBytes
	t.ChargeUserNS(userHandoffNS)
	m.ts.processor.SubmitUserSample(EncodeSample(OUID(ouWord), t.PID, met, words))
}

func deltaU64(cur, begin float64) uint64 {
	d := cur - begin
	if d < 0 {
		return 0
	}
	return uint64(d)
}

// counterDelta is deltaU64 with wraparound accounting: a counter reading
// that went backwards between BEGIN and END (perf-counter wrap, a reset
// racing the probe) clamps to zero and is counted — a silent clamp would
// hide mid-OU corruption as a plausible-looking cheap OU.
func (st *taskState) counterDelta(cur, begin float64) uint64 {
	if cur < begin {
		st.wrapClamps++
		return 0
	}
	return deltaU64(cur, begin)
}

// byteDelta clamps a cumulative byte-counter delta the same way: IO and
// socket counters are monotone, so a negative delta is corruption, not
// workload.
func (st *taskState) byteDelta(cur, begin int64) int64 {
	if cur < begin {
		st.wrapClamps++
		return 0
	}
	return cur - begin
}
