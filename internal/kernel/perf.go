package kernel

// Counter identifies one hardware performance counter exposed through the
// simulated perf_event API. These are the pipeline and caching metrics the
// paper's CPU probe collects (§4.1).
type Counter int

const (
	// CounterCycles is CPU core cycles.
	CounterCycles Counter = iota
	// CounterInstructions is retired instructions.
	CounterInstructions
	// CounterCacheRefs is last-level cache references.
	CounterCacheRefs
	// CounterCacheMisses is last-level cache misses.
	CounterCacheMisses
	// CounterRefCycles is reference (unscaled) CPU cycles.
	CounterRefCycles

	numCounters
)

// Valid reports whether c names a real hardware counter. Callers feeding
// untrusted selectors into PerfContext.Read (the BPF read_perf_counter
// helper in particular) must check this first.
func (c Counter) Valid() bool { return c >= 0 && c < numCounters }

// counterNames holds each counter's perf-style event name.
var counterNames = [numCounters]string{
	"cpu-cycles", "instructions", "cache-references", "cache-misses", "ref-cycles",
}

// String returns the perf-style event name.
func (c Counter) String() string {
	if !c.Valid() {
		return "unknown-counter"
	}
	return counterNames[c]
}

// AllCounters lists every counter the CPU probe enables by default. Note
// that this exceeds the PMURegisters of both hardware profiles, so the
// kernel multiplexes and TScout must normalize readings (paper §4.1).
var AllCounters = []Counter{
	CounterCycles, CounterInstructions, CounterCacheRefs,
	CounterCacheMisses, CounterRefCycles,
}

// PerfContext is the per-task perf_event state. Raw counts accumulate only
// while a counter is enabled, scaled by the multiplexing duty cycle when
// more counters are enabled than the PMU has registers. TimeEnabled and
// TimeRunning mimic the perf_event read format used for normalization.
type PerfContext struct {
	kernel *Kernel
	task   *Task
	// perTask marks counters attached in per-task mode, which the kernel
	// must save and restore on every context switch. CPU-wide counters
	// (the BPF Collector's access mode) have no switch cost — the root
	// of User-Continuous's standing overhead in §6.2.
	perTask bool
	enabled [numCounters]bool
	raw     [numCounters]float64
	// timeEnabled and timeRunning are in accumulated "work units"; their
	// ratio is what normalization needs, not their absolute scale.
	timeEnabled [numCounters]float64
	timeRunning [numCounters]float64
}

func newPerfContext(k *Kernel, t *Task) *PerfContext {
	return &PerfContext{kernel: k, task: t}
}

// cpuCounterBase is the virtual counter context of one CPU: real CPU-wide
// perf counters on different cores start from unrelated accumulated values,
// so a snapshot taken on CPU A differenced against a read on CPU B measures
// nothing. Each (cpu, counter) pair gets a distinct large integer offset —
// an exact power-of-two multiple, so adding it to a raw float count and the
// Collector's fixed-point normalization both stay exact, and same-CPU deltas
// cancel it to the bit. Cross-CPU deltas are off by at least 2^40 counts,
// which is what makes torn (migrated) samples detectable and what this
// simulation uses to prove they never reach the archive.
func cpuCounterBase(cpu int, c Counter) float64 {
	return float64(cpu) * float64(uint64(1)<<40) * float64(c+1)
}

// Enable turns on the given counters. It does not itself charge syscall
// cost; callers (the collection-mode implementations in tscout) charge the
// appropriate number of syscalls or trap transitions.
//
// Counters with no accumulated history are seeded with one work unit of
// enabled/running time at the post-enable duty cycle. A reading whose
// TimeRunning is zero normalizes to zero (real perf semantics and the BPF
// division guard alike), which would make a BEGIN snapshot taken before the
// task's first charge disagree with the END read's multiplexing ratio — and
// any cross-read ratio mismatch stops the per-CPU counter base from
// cancelling in deltas. Seeding makes the ratio identical from the very
// first read.
func (pc *PerfContext) Enable(cs ...Counter) {
	for _, c := range cs {
		pc.enabled[c] = true
	}
	duty := pc.dutyCycle()
	for _, c := range cs {
		if pc.timeEnabled[c] == 0 {
			pc.timeEnabled[c] = 1.0
			pc.timeRunning[c] = duty
		}
	}
}

// SetPerTask selects per-task counter mode (PMU state saved on every
// context switch) versus CPU-wide mode.
func (pc *PerfContext) SetPerTask(v bool) { pc.perTask = v }

// DisableAll turns off every counter.
func (pc *PerfContext) DisableAll() {
	for i := range pc.enabled {
		pc.enabled[i] = false
	}
}

// EnabledCount returns how many counters are currently enabled.
func (pc *PerfContext) EnabledCount() int {
	n := 0
	for _, e := range pc.enabled {
		if e {
			n++
		}
	}
	return n
}

func (pc *PerfContext) anyEnabled() bool { return pc.EnabledCount() > 0 }

// dutyCycle returns the fraction of time each enabled counter is actually
// counting, given PMU register pressure.
func (pc *PerfContext) dutyCycle() float64 {
	n := pc.EnabledCount()
	regs := pc.kernel.Profile.PMURegisters
	if n <= regs {
		return 1.0
	}
	return float64(regs) / float64(n)
}

// accumulate adds counter deltas for one unit of executed work, indexed by
// Counter, honoring enablement and multiplexing. Multiplexed counters see
// only a duty-cycle fraction of the true count, with sampling noise:
// exactly the distortion the normalization step must undo.
func (pc *PerfContext) accumulate(deltas [numCounters]float64) {
	if !pc.anyEnabled() {
		return
	}
	duty := pc.dutyCycle()
	for c, d := range deltas {
		if !pc.enabled[c] {
			continue
		}
		observed := d * duty
		if duty < 1.0 {
			observed = pc.task.noiseDraw().Apply(observed)
		}
		pc.raw[c] += observed
		pc.timeEnabled[c] += 1.0
		pc.timeRunning[c] += duty
	}
}

// Reading is one counter sample in perf_event read format: the raw value
// plus the enabled/running times needed to normalize multiplexed counts.
type Reading struct {
	Raw         float64
	TimeEnabled float64
	TimeRunning float64
}

// Read returns the current reading for counter c without charging any
// cost. Cost accounting belongs to the access path: a user-space read is a
// syscall per counter group; a kernel-space (BPF helper) read is free of
// mode switches because the Collector is already in kernel mode.
func (pc *PerfContext) Read(c Counter) Reading {
	raw := pc.raw[c]
	// CPU-wide counters (the Collector's mode) read the current CPU's
	// virtual counter context: the task's accumulated count rides on top of
	// that CPU's base offset. Per-task counters follow the task and have no
	// per-CPU component.
	if !pc.perTask && pc.task != nil {
		raw += cpuCounterBase(pc.task.CPU(), c)
	}
	return Reading{
		Raw:         raw,
		TimeEnabled: pc.timeEnabled[c],
		TimeRunning: pc.timeRunning[c],
	}
}

// InjectWrap rolls every enabled counter's accumulated count backwards,
// modeling a hardware counter overflow between two reads: the next read
// observes a smaller value than an earlier snapshot, so unsigned delta
// computations underflow. A count of at least delta rolls back by delta;
// a smaller one halves. The count never goes below zero: the per-CPU base
// a CPU-wide read adds changes when the task migrates, so only a
// non-negative count reads as a count on every CPU. Halving rather than
// stopping at zero keeps every wrap of a counter that has counted
// anything strictly below the read before it, so an OU that begins after
// one wrap and ends after another still reads lower at END than at BEGIN.
// An OU reads higher at END than at BEGIN only when the work it did before
// the wrap exceeds what the counter held when it began, as a task's first
// OU's can.
func (pc *PerfContext) InjectWrap(delta float64) {
	for c := 0; c < int(numCounters); c++ {
		if !pc.enabled[c] {
			continue
		}
		if pc.raw[c] >= delta {
			pc.raw[c] -= delta
		} else {
			pc.raw[c] /= 2
		}
	}
}
