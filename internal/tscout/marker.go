package tscout

import "tscout/internal/kernel"

// User-space instrumentation costs in virtual nanoseconds. These are the
// calibration constants behind the §6.2 overhead comparison, and with the
// syscalls the markers issue they are the user modes' probe cost table;
// everything else (syscalls, mode switches, Collector execution in kernel
// mode) is charged by the kernel and BPF layers from the hardware profile.
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
	// and handing it to the Processor (allocation, locking).
	userHandoffNS = 150
	// toggleSyscallExtraNS is the extra in-kernel work of the perf
	// enable/read/disable syscalls User-Toggle issues per sampled OU.
	toggleSyscallExtraNS = 150
)

// Marker is the triplet of instrumentation points a developer wraps around
// one OU (paper §3.1): Begin and End bound the OU's execution; Features
// records its input features and user-level metrics after execution. The
// Marker is cheap when the surrounding event was not sampled.
//
// Every mode runs the subsystem's generated Collector, so the §5.1 state
// machine and the sample are the same in all three; the modes differ only in
// what a probe costs. Kernel-Continuous traps into the Collector through the
// marker's tracepoint. The user modes stand for the paper's user-space
// probes: they pay the syscalls and the user-space costs above, and run the
// Collector's program in place, with no trap and none of its execution
// charged.
type Marker struct {
	ts  *TScout
	def *OUDef
	sub *subsystem
	// idArg is the BEGIN/END tracepoint argument list, {OU id}, built once:
	// handlers only read their args, so every task shares it.
	idArg []uint64
}

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
		m.userSnapshot(t, false)
	case UserContinuous:
		// Counters are always on; snapshotting is pure user-space work
		// (the single syscall of this mode is paid at END).
		m.userSnapshot(t, false)
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
		m.userSnapshot(t, true)
		t.Perf().DisableAll()
		t.Syscall(toggleSyscallExtraNS, true)
	case UserContinuous:
		// The mode's single syscall retrieves all counters at once.
		t.Syscall(0, true)
		m.userSnapshot(t, true)
	}
}

// userSnapshot is a user-mode probe at BEGIN or END: the user-space cost of
// snapshotting the readings, then the subsystem's BEGIN or END program run in
// place. Before Deploy there is no program to run.
func (m *Marker) userSnapshot(t *kernel.Task, end bool) {
	t.ChargeUserNS(userSnapshotNS)
	if col := m.sub.collector; col != nil {
		lp := col.Begin
		if end {
			lp = col.End
		}
		lp.Hit(t, m.idArg)
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
	st.featArgs = append(st.featArgs[:0], ouWord, uint64(allocBytes), uint64(len(words)))
	st.featArgs = append(st.featArgs, words...)
	if m.ts.cfg.Mode == KernelContinuous {
		t.HitTracepoint(m.sub.featTP, st.featArgs)
		return
	}
	// A user-mode probe runs the FEATURES program in place, and pays the
	// handoff only for a sample the program submitted.
	if col := m.sub.collector; col != nil {
		if r0, _ := col.Features.Hit(t, st.featArgs); r0 == 0 {
			t.ChargeUserNS(userHandoffNS)
		}
	}
}
