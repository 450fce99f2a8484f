// Package kernel simulates the slice of a Linux kernel that TScout depends
// on: tasks with per-task IO accounting (task_struct.ioac), socket
// statistics (tcp_sock), the perf_event counter subsystem with PMU
// multiplexing, a syscall/mode-switch cost model, and statically-defined
// tracepoints that trap into kernel space and run an attached program.
//
// The paper's overhead results (Figures 1, 5, 6) are driven entirely by how
// many user<->kernel transitions each metrics-collection method performs and
// what each transition costs; this package charges those costs explicitly in
// virtual time from the active sim.HardwareProfile.
package kernel

import (
	"fmt"

	"tscout/internal/sim"
)

// Kernel is one simulated OS instance. It owns the tracepoint registry, the
// process table, and global accounting. Like everything in a simulation it
// is driven by one goroutine (see the sim package doc): tasks on different
// simulated CPUs interleave only in virtual time.
type Kernel struct {
	Profile sim.HardwareProfile

	// noise is the run's measurement noise, open on stream 0, which is no
	// task's generation: each task copies it and keys its draws by its
	// generation and transaction ordinal (Task.BeginScope), so no draw
	// depends on what another task, or another CPU, drew before it.
	noise *sim.Noise
	sigma float64
	// draws counts noise draws by the CPU whose charge took them.
	draws []uint64

	nextPID     int
	nextGen     uint64
	freePIDs    []int
	liveGens    map[uint64]bool
	numCPUs     int
	tracepoints map[string]*Tracepoint

	loadFactor float64
	injector   *FaultInjector

	// events is the stream Observe attached; dropped counts its overflow.
	events  []Event
	dropped int64
}

// New creates a simulated kernel on the given hardware with deterministic
// measurement noise derived from seed. sigma is the relative measurement
// jitter (0 disables noise).
//
// The simulated CPU count starts at 1 — the single-consumer topology every
// recorded experiment was measured on — and multi-CPU deployments opt in
// with SetNumCPUs (e.g. SetNumCPUs(profile.Cores)). Task placement and ring
// routing change with the CPU count, so defaulting it to the profile's
// cores would silently reshuffle the sample streams of existing setups.
func New(profile sim.HardwareProfile, seed int64, sigma float64) *Kernel {
	return &Kernel{
		Profile:     profile,
		noise:       sim.NewNoise(seed, sigma),
		sigma:       sigma,
		draws:       make([]uint64, 1),
		nextPID:     1,
		nextGen:     1,
		liveGens:    make(map[uint64]bool),
		numCPUs:     1,
		tracepoints: make(map[string]*Tracepoint),
	}
}

// NoiseDraws returns how many noise draws each simulated CPU's charges
// took. Two runs of the same seeded schedule must report identical
// vectors; the multi-core determinism suite uses this as a cheap
// fingerprint that no charge moved across CPUs.
func (k *Kernel) NoiseDraws() []uint64 {
	return append([]uint64(nil), k.draws...)
}

// NumCPUs returns the number of simulated CPUs (1 by default). Per-CPU
// structures — the perf ring buffers real perf allocates one-per-core —
// size themselves from this.
func (k *Kernel) NumCPUs() int { return k.numCPUs }

// SetNumCPUs overrides the simulated CPU count (n < 1 is clamped to 1).
// Call it before creating tasks or deploying per-CPU consumers: existing
// tasks keep their assigned CPU, so shrinking the count mid-run would leave
// tasks on CPUs no new ring covers, and the per-CPU draw counters restart.
func (k *Kernel) SetNumCPUs(n int) {
	if n < 1 {
		n = 1
	}
	k.draws = make([]uint64, n)
	k.numCPUs = n
}

// SetLoadFactor declares how many worker threads are actively contending
// for shared DBMS structures (latches, the allocator, the version store).
// Contention shows up as extra stall cycles on every charge: elapsed time
// and cycle counts inflate while instruction counts do not — exactly the
// feature-invisible effect that makes single-client offline runner data
// mis-predict heavily loaded deployments (paper §6.5, Fig. 11).
func (k *Kernel) SetLoadFactor(workers float64) {
	if workers < 1 {
		workers = 1
	}
	k.loadFactor = workers
}

// contentionMult returns the cycle inflation for the current load.
func (k *Kernel) contentionMult() float64 {
	if k.loadFactor <= 1 {
		return 1
	}
	return 1 + 0.08*(k.loadFactor-1)
}

// NewTask registers a new task (a DBMS worker thread) with the kernel.
// Pids are recycled LIFO from exited tasks — the Linux behavior that makes
// pid-keyed Collector state dangerous — while the generation tag is never
// reused, so gen-keyed state stays unambiguous across reuse.
func (k *Kernel) NewTask(name string) *Task {
	return k.newTask(name, -1)
}

// NewTaskOn registers a new task pinned to the given simulated CPU
// (clamped into range) instead of the default round-robin placement.
// Connection pools and drain-thread groups use it to spread their workers
// across CPUs deterministically regardless of pid-recycling history.
func (k *Kernel) NewTaskOn(name string, cpu int) *Task {
	if cpu < 0 {
		cpu = 0
	}
	return k.newTask(name, cpu)
}

func (k *Kernel) newTask(name string, cpu int) *Task {
	var pid int
	if n := len(k.freePIDs); n > 0 {
		pid = k.freePIDs[n-1]
		k.freePIDs = k.freePIDs[:n-1]
	} else {
		pid = k.nextPID
		k.nextPID++
	}
	gen := k.nextGen
	k.nextGen++
	k.liveGens[gen] = true
	if cpu < 0 {
		// Deterministic round-robin placement stands in for the
		// scheduler's initial CPU assignment; Migrate moves a task.
		cpu = (pid - 1) % k.numCPUs
	} else {
		cpu = cpu % k.numCPUs
	}
	t := &Task{
		PID:    pid,
		gen:    gen,
		cpu:    cpu,
		Name:   name,
		kernel: k,
		noise:  *k.noise,
	}
	t.noise.Open(gen, 0)
	t.perf = newPerfContext(k, t)
	return t
}

// ExitTask tears a task down: its generation goes dead (visible through
// GenAlive, which the Collector's stale-entry reaper consults) and its pid
// becomes immediately reusable by the next NewTask. Exiting an already-dead
// task is a no-op.
//
//tsvet:ignore unused-export fault-injection test hook: the chaos and resilience tests kill tasks with it
func (k *Kernel) ExitTask(t *Task) {
	if !k.liveGens[t.gen] {
		return
	}
	delete(k.liveGens, t.gen)
	k.freePIDs = append(k.freePIDs, t.PID)
}

// GenAlive reports whether the task generation is still running. Gen 0 is
// never alive (it is the zero value of an absent tag).
func (k *Kernel) GenAlive(gen uint64) bool { return k.liveGens[gen] }

// Tracepoint returns the named tracepoint, creating it on first use.
// Tracepoints are the kernel-side anchor of TScout's markers (paper §3.1):
// at DBMS compile time the marker macros emit NOPs plus metadata, and the OS
// patches them into real trap sites when a Collector attaches.
func (k *Kernel) Tracepoint(name string) *Tracepoint {
	tp, ok := k.tracepoints[name]
	if !ok {
		tp = &Tracepoint{name: name}
		k.tracepoints[name] = tp
	}
	return tp
}

// TracepointNames returns all registered tracepoint names (for tooling).
func (k *Kernel) TracepointNames() []string {
	names := make([]string, 0, len(k.tracepoints))
	for n := range k.tracepoints {
		names = append(names, n)
	}
	return names
}

// TraceHandler is a program attached to a tracepoint. It runs logically in
// kernel space: the task has already paid the mode switch when the handler
// is invoked. The handler returns the number of virtual nanoseconds its
// execution cost (the BPF interpreter reports instructions * BPFInsnNS).
//
// args belongs to the caller and is only valid for the duration of the call:
// a handler may neither retain nor modify it. Markers pass prebuilt and
// per-task scratch slices, the same slice may be in flight on several tasks
// at once, and a duplicate-delivery fault hands one slice to the handler
// twice.
type TraceHandler func(t *Task, args []uint64) int64

// Tracepoint is a statically-defined trace site. With no handler attached a
// hit is a NOP and costs nothing, matching USDT semantics.
type Tracepoint struct {
	name string

	// handler is nil while detached.
	handler TraceHandler

	// Hits counts handler invocations (not NOP executions).
	Hits int64
}

// Attach installs a handler, replacing any existing one. Attach(nil)
// detaches: subsequent hits are NOPs again.
func (tp *Tracepoint) Attach(h TraceHandler) { tp.handler = h }

// Attached reports whether a handler is currently installed.
func (tp *Tracepoint) Attached() bool { return tp.handler != nil }

func (tp *Tracepoint) String() string {
	return fmt.Sprintf("tracepoint(%s attached=%v hits=%d)", tp.name, tp.Attached(), tp.Hits)
}
