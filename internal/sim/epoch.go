package sim

import (
	"cmp"
	"slices"
)

// This file is the multi-core extension of the virtual-time engine: per-CPU
// virtual clocks coordinated by an epoch/barrier scheme.
//
// The single-clock engine merges per-task clocks into one global timeline by
// always advancing the furthest-behind task. That is exact but inherently
// serial: every scheduling decision observes every clock. The multi-core
// engine instead gives each simulated CPU its own timeline. Within an epoch
// of fixed virtual length, each CPU advances independently — its tasks
// serialize against each other in virtual time but never consult another
// CPU's clock. Cross-CPU effects (WAL submissions, wakeups, migrations) are
// not applied inline; they are *deferred* with their virtual timestamp and
// origin CPU, and a barrier at the epoch boundary merges them in the total
// order (AtNS, CPU, seq). Because per-CPU execution is a deterministic
// function of (seed, that CPU's event sequence) and the barrier merge is a
// deterministic function of the deferred set, the whole schedule is a
// deterministic function of the seed at any CPU count — regardless of the
// wall-clock interleaving the host happens to run the CPUs with.

// CPUTimelines is one virtual clock per simulated CPU. The zero CPU count
// is clamped to 1. Methods are not synchronized: each CPU's timeline must
// only be advanced by the goroutine driving that CPU (the same ownership
// discipline a Task has), while Makespan/Frontier are barrier-time
// operations.
type CPUTimelines struct {
	now []int64
}

// NewCPUTimelines creates n per-CPU clocks starting at virtual time zero.
func NewCPUTimelines(n int) *CPUTimelines {
	if n < 1 {
		n = 1
	}
	return &CPUTimelines{now: make([]int64, n)}
}

// NumCPUs returns the number of timelines.
func (tl *CPUTimelines) NumCPUs() int { return len(tl.now) }

// Now returns CPU cpu's current virtual time.
func (tl *CPUTimelines) Now(cpu int) int64 { return tl.now[tl.clamp(cpu)] }

// Advance moves CPU cpu's clock forward by ns (negative values ignored).
func (tl *CPUTimelines) Advance(cpu int, ns int64) {
	if ns > 0 {
		tl.now[tl.clamp(cpu)] += ns
	}
}

// AdvanceTo moves CPU cpu's clock forward to t if t is in the future and
// returns the time waited.
func (tl *CPUTimelines) AdvanceTo(cpu int, t int64) int64 {
	c := tl.clamp(cpu)
	if t <= tl.now[c] {
		return 0
	}
	w := t - tl.now[c]
	tl.now[c] = t
	return w
}

// Makespan returns the furthest-ahead CPU clock: the parallel elapsed time
// of the simulated machine.
func (tl *CPUTimelines) Makespan() int64 {
	var max int64
	for _, n := range tl.now {
		if n > max {
			max = n
		}
	}
	return max
}

// Frontier returns the furthest-behind CPU clock — the laggard that bounds
// how far an epoch barrier may declare global time to have advanced.
func (tl *CPUTimelines) Frontier() int64 {
	min := tl.now[0]
	for _, n := range tl.now[1:] {
		if n < min {
			min = n
		}
	}
	return min
}

// Reset rewinds every timeline to zero (between experiment trials).
func (tl *CPUTimelines) Reset() {
	for i := range tl.now {
		tl.now[i] = 0
	}
}

func (tl *CPUTimelines) clamp(cpu int) int {
	if cpu < 0 || cpu >= len(tl.now) {
		return 0
	}
	return cpu
}

// deferred is one cross-CPU event parked until the next barrier.
type deferred struct {
	atNS int64
	cpu  int
	seq  uint64
	fn   func(atNS int64)
}

// Epochs coordinates per-CPU timelines with an epoch/barrier scheme. The
// virtual timeline is cut into fixed-length epochs; cross-CPU events raised
// during an epoch are deferred (Defer) and applied at the barrier in the
// deterministic total order (AtNS, CPU, seq). Epochs is not synchronized:
// the driver that owns the schedule calls Defer and Barrier; per-CPU
// execution between barriers may be distributed, but each Defer must be
// issued by the goroutine owning that CPU's slice of the schedule, funneled
// through the driver. (The current drivers run CPUs round-robin on one
// goroutine — wall-clock layout is an implementation choice the barrier
// order is explicitly independent of.)
type Epochs struct {
	tl      *CPUTimelines
	epochNS int64
	index   int64
	events  []deferred
	nextSeq []uint64 // per-CPU: deferral order within the epoch
	applied int64
}

// NewEpochs creates an epoch coordinator over the given timelines with the
// given epoch length (values < 1ns are clamped to a 100µs default).
func NewEpochs(tl *CPUTimelines, epochNS int64) *Epochs {
	if epochNS < 1 {
		epochNS = 100_000
	}
	return &Epochs{tl: tl, epochNS: epochNS, nextSeq: make([]uint64, tl.NumCPUs())}
}

// Index returns the current epoch number (starting at 0).
func (e *Epochs) Index() int64 { return e.index }

// Start returns the current epoch's first virtual nanosecond.
func (e *Epochs) Start() int64 { return e.index * e.epochNS }

// End returns the current epoch's exclusive upper bound: the barrier point.
func (e *Epochs) End() int64 { return (e.index + 1) * e.epochNS }

// Applied returns how many deferred events barriers have applied.
func (e *Epochs) Applied() int64 { return e.applied }

// Defer parks a cross-CPU event raised on cpu at virtual time atNS. The
// event's callback runs at the next Barrier, in (AtNS, CPU, seq) order,
// where seq is the per-CPU deferral order — so the barrier's merge is a
// pure function of what each CPU did, not of when the host ran it.
func (e *Epochs) Defer(cpu int, atNS int64, fn func(atNS int64)) {
	c := e.tl.clamp(cpu)
	e.events = append(e.events, deferred{atNS: atNS, cpu: c, seq: e.nextSeq[c], fn: fn})
	e.nextSeq[c]++
}

// Barrier ends the current epoch: every deferred event is applied in the
// deterministic (AtNS, CPU, seq) order, the per-CPU deferral counters
// reset, and the epoch index advances. It returns the number of events
// applied. Laggard CPU clocks are left where they are — idle virtual time
// is not charged; the next dispatch on a CPU advances its clock to the
// work's ready time.
func (e *Epochs) Barrier() int {
	evs := e.events
	e.events = nil
	for i := range e.nextSeq {
		e.nextSeq[i] = 0
	}
	slices.SortStableFunc(evs, func(a, b deferred) int {
		if c := cmp.Compare(a.atNS, b.atNS); c != 0 {
			return c
		}
		if c := cmp.Compare(a.cpu, b.cpu); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for _, ev := range evs {
		ev.fn(ev.atNS)
	}
	e.applied += int64(len(evs))
	e.index++
	return len(evs)
}

// SkipTo fast-forwards the epoch index so that virtual time t falls inside
// the current epoch (used when every CPU is idle until a future wakeup).
// It never rewinds, and it refuses to skip while events are deferred —
// those must be applied by a Barrier first.
func (e *Epochs) SkipTo(t int64) {
	if len(e.events) > 0 {
		return
	}
	if idx := t / e.epochNS; idx > e.index {
		e.index = idx
	}
}
