package kernel

import "tscout/internal/sim"

// IOAccounting mirrors the Linux task_struct ioac fields that TScout's disk
// probe reads (paper §4.4): cumulative bytes read and written via block IO.
type IOAccounting struct {
	ReadBytes  int64
	WriteBytes int64
	ReadOps    int64
	WriteOps   int64
}

// SocketStats mirrors the tcp_sock statistics that TScout's network probe
// reads (paper §4.3): cumulative socket traffic for the task's connection.
type SocketStats struct {
	BytesReceived int64
	BytesSent     int64
	SegsIn        int64
	SegsOut       int64
}

// Task is a simulated kernel task: one DBMS worker thread. It owns a
// virtual clock, a perf_event context, IO accounting, and socket statistics.
// All Charge* methods advance the clock and update counters (each worker
// owns its Task, the same discipline a real thread has with its
// task_struct).
type Task struct {
	PID    int
	Name   string
	kernel *Kernel
	cpu    int
	gen    uint64

	Clock sim.Clock
	perf  *PerfContext
	IOAC  IOAccounting
	Sock  SocketStats

	// UserInstrumentationNS accumulates the time this task spent in
	// user-space metrics bookkeeping (for the overhead breakdown).
	UserInstrumentationNS int64
	// KernelInstrumentationNS accumulates time spent in traps, syscalls
	// and Collector execution on behalf of metrics collection.
	KernelInstrumentationNS int64

	local any
}

// Local returns the task-local storage slot: one value the code driving the
// task may park on it (TScout keeps its per-thread marker state here, as a
// real instrumented thread keeps it in a thread-local) so finding it again
// needs no shared table. The slot is owner-serialized like the Charge
// methods, starts nil, and says nothing about who stored the value: a
// reader sharing the task with other users must check the value is its own.
func (t *Task) Local() any { return t.local }

// SetLocal replaces the task-local storage slot.
func (t *Task) SetLocal(v any) { t.local = v }

// Kernel returns the kernel this task belongs to.
func (t *Task) Kernel() *Kernel { return t.kernel }

// CPU returns the simulated CPU the task is currently running on. Submit
// paths that are per-CPU by construction (perf ring buffers) route by this.
func (t *Task) CPU() int { return t.cpu }

// Migrate moves the task to another CPU (clamped into the kernel's range).
// Like the Charge methods it is the owner's to call.
func (t *Task) Migrate(cpu int) {
	n := t.kernel.NumCPUs()
	if cpu < 0 {
		cpu = 0
	}
	t.cpu = cpu % n
}

// Gen returns the task's generation tag: a kernel-wide monotonically
// increasing id assigned at NewTask and never reused, unlike the pid. It is
// the simulated stand-in for (pid, start_time) identity — the pair real
// collectors need because bare pids recycle.
func (t *Task) Gen() uint64 { return t.gen }

// Perf returns the task's perf_event context.
func (t *Task) Perf() *PerfContext { return t.perf }

// Now returns the task's current virtual time.
func (t *Task) Now() int64 { return t.Clock.Now() }

// Charge executes a unit of CPU work: it derives cycles, instructions and
// cache behavior from the descriptor and the hardware profile, advances the
// task's clock, and accumulates enabled perf counters. It returns the
// elapsed virtual nanoseconds. Blocking IO and network time described by
// the work descriptor is charged too (a real thread blocks in the syscall).
func (t *Task) Charge(w sim.Work) int64 {
	p := &t.kernel.Profile
	n := t.kernel.noiseFor(t.cpu)

	refs := w.BytesTouched / float64(p.CacheLineBytes)
	missRate := missRate(w, p)
	misses := refs * missRate
	instructions := n.Apply(w.Instructions)
	stall := misses * p.MissPenaltyCycles
	cycles := (instructions/p.BaseIPC + stall) * t.kernel.contentionMult()
	cpuNS := p.CyclesToNS(n.Apply(cycles))

	var ioNS int64
	if w.DiskOps > 0 || w.DiskReadBytes > 0 || w.DiskWriteBytes > 0 {
		ioNS += w.DiskOps * p.DiskLatencyNS
		if w.DiskReadBytes > 0 {
			ioNS += int64(float64(w.DiskReadBytes) / p.DiskReadBytesPerNS)
		}
		if w.DiskWriteBytes > 0 {
			ioNS += int64(float64(w.DiskWriteBytes) / p.DiskWriteBytesPerNS)
		}
		ioNS = n.ApplyNS(ioNS)
		t.IOAC.ReadBytes += w.DiskReadBytes
		t.IOAC.WriteBytes += w.DiskWriteBytes
		if w.DiskReadBytes > 0 {
			t.IOAC.ReadOps += maxI64(1, w.DiskOps)
		}
		if w.DiskWriteBytes > 0 {
			t.IOAC.WriteOps += maxI64(1, w.DiskOps)
		}
	}

	var netNS int64
	if w.NetMessages > 0 || w.NetRecvBytes > 0 || w.NetSendBytes > 0 {
		netNS += w.NetMessages * p.NetLatencyNS
		netNS += int64(float64(w.NetRecvBytes+w.NetSendBytes) / p.NetBytesPerNS)
		netNS = n.ApplyNS(netNS)
		t.Sock.BytesReceived += w.NetRecvBytes
		t.Sock.BytesSent += w.NetSendBytes
		t.Sock.SegsIn += w.NetMessages
		t.Sock.SegsOut += w.NetMessages
	}

	t.perf.accumulate(counterDeltas{
		cycles:       cycles,
		instructions: instructions,
		cacheRefs:    refs,
		cacheMisses:  misses,
		refCycles:    cycles * 0.97,
	})

	total := cpuNS + ioNS + netNS
	t.Clock.Advance(total)
	return total
}

// missRate estimates the LLC miss fraction for a work descriptor: working
// sets within L3 mostly hit; beyond L3 the miss rate grows toward the
// random-access ceiling. Sequential access prefetches well and caps much
// lower than random access (paper §6.4: L3 size materially changes query
// cost between the two evaluation machines).
func missRate(w sim.Work, p *sim.HardwareProfile) float64 {
	if w.WorkingSetBytes <= 0 || w.BytesTouched <= 0 {
		return 0.005
	}
	overflow := 1.0 - float64(p.L3CacheBytes)/w.WorkingSetBytes
	if overflow < 0 {
		overflow = 0
	}
	ceiling := 0.08 + 0.72*w.RandomAccessFraction
	return 0.005 + overflow*ceiling
}

// Syscall charges the task for one syscall: a user<->kernel mode switch
// plus the in-kernel work (profile.SyscallNS plus extra for heavier calls).
// The elapsed time is returned and also recorded as kernel instrumentation
// overhead when instrumentation is true.
func (t *Task) Syscall(extraNS int64, instrumentation bool) int64 {
	p := &t.kernel.Profile
	ns := t.kernel.noiseFor(t.cpu).ApplyNS(p.ModeSwitchNS + p.SyscallNS + extraNS)
	t.Clock.Advance(ns)
	t.kernel.ModeSwitches++
	if instrumentation {
		t.KernelInstrumentationNS += ns
	}
	return ns
}

// ContextSwitch charges the task for being scheduled out and back in. If
// the task has continuously-enabled perf counters the kernel must save and
// restore PMU state, which is the standing cost of the User-Continuous
// collection mode even at a 0% sampling rate (paper §6.2).
func (t *Task) ContextSwitch() int64 {
	p := &t.kernel.Profile
	ns := p.CtxSwitchNS
	if t.perf.perTask && t.perf.anyEnabled() {
		ns += p.PMUSaveNS
	}
	ns = t.kernel.noiseFor(t.cpu).ApplyNS(ns)
	t.Clock.Advance(ns)
	t.kernel.CtxSwitches++
	return ns
}

// HitTracepoint executes the named tracepoint. With no handler attached it
// is free (a NOP in the patched code). With a handler attached the task
// pays one mode switch, the handler runs in kernel space, and the handler's
// self-reported execution cost is charged (paper §2.3: a single transition
// covers every metric the Collector gathers).
func (t *Task) HitTracepoint(tp *Tracepoint, args []uint64) {
	h := tp.handler
	if h == nil {
		return
	}
	// An installed fault injector may drop this delivery (the hit never
	// happens, as with a lost perf event), duplicate it, or perturb the
	// task (migration, counter wrap) before the handler runs.
	times := 1
	if fi := t.kernel.injector; fi != nil {
		times = fi.beforeHit(t)
	}
	p := &t.kernel.Profile
	for i := 0; i < times; i++ {
		tp.Hits++
		// Fetched inside the loop: a migrate fault in beforeHit may have
		// moved the task, and delivery noise is charged on the CPU the hit
		// actually runs on.
		enter := t.kernel.noiseFor(t.cpu).ApplyNS(p.ModeSwitchNS)
		t.Clock.Advance(enter)
		t.kernel.ModeSwitches++
		cost := h(t, args)
		if cost > 0 {
			t.Clock.Advance(cost)
		}
		t.KernelInstrumentationNS += enter + cost
	}
}

// ChargeUserNS charges plain user-space bookkeeping time (sampling checks,
// feature buffer fills) and records it as user instrumentation overhead.
func (t *Task) ChargeUserNS(ns int64) {
	if ns <= 0 {
		return
	}
	ns = t.kernel.noiseFor(t.cpu).ApplyNS(ns)
	t.Clock.Advance(ns)
	t.UserInstrumentationNS += ns
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
