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
	"math"
	"sync"
	"sync/atomic"

	"tscout/internal/sim"
)

// Kernel is one simulated OS instance. It owns the tracepoint registry, the
// process table, and global accounting. A Kernel is safe for concurrent use
// by multiple goroutines, though the discrete-event workload driver usually
// runs tasks one at a time.
type Kernel struct {
	Profile sim.HardwareProfile
	// Noise is simulated CPU 0's measurement-noise stream. It is the only
	// stream on the default single-CPU topology, and it is seeded directly
	// from the kernel seed so single-CPU schedules are bit-identical to the
	// pre-multi-core engine. Charges on other CPUs draw from derived
	// per-CPU streams (see noiseFor): disjoint streams are what let tasks
	// on different CPUs charge concurrently without racing on one
	// math/rand state or perturbing each other's deterministic sequences.
	Noise *sim.Noise

	seed  int64
	sigma float64
	// noiseStreams holds one *sim.Noise per simulated CPU (index 0 is the
	// public Noise). It is stored atomically so charge paths read it
	// lock-free; SetNumCPUs rebuilds it, which is why SetNumCPUs must run
	// before any task activity.
	noiseStreams atomic.Value // []*sim.Noise

	mu          sync.Mutex
	nextPID     int
	nextGen     uint64
	freePIDs    []int
	liveGens    map[uint64]bool
	numCPUs     int
	tracepoints map[string]*Tracepoint

	// loadFactor (float64 bits) and injector are read on every charge and
	// every tracepoint hit, so they are atomics rather than fields under
	// mu: the hit path takes no lock (paper §3: "no locks, no back
	// pressure").
	loadFactor atomic.Uint64
	injector   atomic.Pointer[FaultInjector]

	// CtxSwitches counts context switches across all tasks (exposed for
	// the overhead experiments).
	CtxSwitches atomic.Int64
	// ModeSwitches counts user<->kernel transitions across all tasks.
	ModeSwitches atomic.Int64
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
	k := &Kernel{
		Profile:     profile,
		Noise:       sim.NewNoise(seed, sigma),
		seed:        seed,
		sigma:       sigma,
		nextPID:     1,
		nextGen:     1,
		liveGens:    make(map[uint64]bool),
		numCPUs:     1,
		tracepoints: make(map[string]*Tracepoint),
	}
	k.noiseStreams.Store([]*sim.Noise{k.Noise})
	return k
}

// deriveStreamSeed mixes a per-CPU stream index into the kernel seed
// (splitmix64 finalizer) so each simulated CPU gets an independent,
// reproducible noise stream. Stream 0 never goes through this — it keeps
// the raw seed for pre-multi-core bit compatibility.
func deriveStreamSeed(seed int64, cpu int) int64 {
	z := uint64(seed) + uint64(cpu)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// noiseFor returns the measurement-noise stream of the given simulated
// CPU (out-of-range CPUs fall back to stream 0). Streams are per-CPU, not
// per-task: tasks on one CPU share a stream — they are time-multiplexed on
// that CPU, so their charges are serialized anyway — while tasks on
// different CPUs draw from disjoint streams and may charge concurrently.
func (k *Kernel) noiseFor(cpu int) *sim.Noise {
	streams := k.noiseStreams.Load().([]*sim.Noise)
	if cpu >= 0 && cpu < len(streams) {
		return streams[cpu]
	}
	return streams[0]
}

// NoiseDraws returns the per-CPU noise-stream draw counters. Two runs of
// the same seeded schedule must report identical vectors; the multi-core
// determinism suite uses this as a cheap fingerprint that no charge was
// reordered across streams.
func (k *Kernel) NoiseDraws() []uint64 {
	streams := k.noiseStreams.Load().([]*sim.Noise)
	out := make([]uint64, len(streams))
	for i, n := range streams {
		out[i] = n.Draws()
	}
	return out
}

// NumCPUs returns the number of simulated CPUs (1 by default). Per-CPU
// structures — the perf ring buffers real perf allocates one-per-core —
// size themselves from this.
func (k *Kernel) NumCPUs() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.numCPUs
}

// SetNumCPUs overrides the simulated CPU count (n < 1 is clamped to 1).
// Call it before creating tasks or deploying per-CPU consumers: existing
// tasks keep their assigned CPU, so shrinking the count mid-run would leave
// tasks on CPUs no new ring covers — and the per-CPU noise streams for
// CPUs 1..n-1 are (re)derived here, so calling it mid-run would rewind
// their deterministic sequences.
func (k *Kernel) SetNumCPUs(n int) {
	if n < 1 {
		n = 1
	}
	streams := make([]*sim.Noise, n)
	streams[0] = k.Noise
	for i := 1; i < n; i++ {
		streams[i] = sim.NewNoise(deriveStreamSeed(k.seed, i), k.sigma)
	}
	k.noiseStreams.Store(streams)
	k.mu.Lock()
	defer k.mu.Unlock()
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
	k.loadFactor.Store(math.Float64bits(workers))
}

// contentionMult returns the cycle inflation for the current load.
func (k *Kernel) contentionMult() float64 {
	lf := math.Float64frombits(k.loadFactor.Load())
	if lf <= 1 {
		return 1
	}
	return 1 + 0.08*(lf-1)
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
	k.mu.Lock()
	defer k.mu.Unlock()
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
	}
	t.perf = newPerfContext(k, t)
	return t
}

// ExitTask tears a task down: its generation goes dead (visible through
// GenAlive, which the Collector's stale-entry reaper consults) and its pid
// becomes immediately reusable by the next NewTask. Exiting an already-dead
// task is a no-op.
func (k *Kernel) ExitTask(t *Task) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.liveGens[t.gen] {
		return
	}
	delete(k.liveGens, t.gen)
	k.freePIDs = append(k.freePIDs, t.PID)
}

// GenAlive reports whether the task generation is still running. Gen 0 is
// never alive (it is the zero value of an absent tag).
func (k *Kernel) GenAlive(gen uint64) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.liveGens[gen]
}

// SetFaultInjector installs (or, with nil, removes) a fault injector on the
// marker delivery path. Install before starting the workload: the injector's
// hit counter starts at the moment of installation.
func (k *Kernel) SetFaultInjector(fi *FaultInjector) { k.injector.Store(fi) }

// Tracepoint returns the named tracepoint, creating it on first use.
// Tracepoints are the kernel-side anchor of TScout's markers (paper §3.1):
// at DBMS compile time the marker macros emit NOPs plus metadata, and the OS
// patches them into real trap sites when a Collector attaches.
func (k *Kernel) Tracepoint(name string) *Tracepoint {
	k.mu.Lock()
	defer k.mu.Unlock()
	tp, ok := k.tracepoints[name]
	if !ok {
		tp = &Tracepoint{name: name}
		k.tracepoints[name] = tp
	}
	return tp
}

// TracepointNames returns all registered tracepoint names (for tooling).
func (k *Kernel) TracepointNames() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
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

	// handler is nil while detached. It is an atomic pointer, not a field
	// under a lock, because every hit loads it.
	handler atomic.Pointer[TraceHandler]

	// Hits counts handler invocations (not NOP executions).
	Hits atomic.Int64
}

// Name returns the tracepoint's registered name.
func (tp *Tracepoint) Name() string { return tp.name }

// Attach installs a handler, replacing any existing one. Attach(nil) is
// Detach: the pointer itself goes nil, never a pointer to a nil func that
// the next hit would call.
func (tp *Tracepoint) Attach(h TraceHandler) {
	if h == nil {
		tp.Detach()
		return
	}
	tp.handler.Store(&h)
}

// Detach removes the handler; subsequent hits are NOPs again.
func (tp *Tracepoint) Detach() { tp.handler.Store(nil) }

// Attached reports whether a handler is currently installed.
func (tp *Tracepoint) Attached() bool { return tp.handler.Load() != nil }

func (tp *Tracepoint) String() string {
	return fmt.Sprintf("tracepoint(%s attached=%v hits=%d)", tp.name, tp.Attached(), tp.Hits.Load())
}
