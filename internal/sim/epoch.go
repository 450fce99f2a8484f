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
// origin CPU, and a barrier at the epoch boundary merges them ordered by
// (AtNS, CPU), ties in deferral order. Because per-CPU execution is a
// deterministic function of (seed, that CPU's event sequence) and the barrier
// merge is a deterministic function of the deferred set, the whole schedule
// is a deterministic function of the seed at any CPU count — regardless of
// the order in which the driver runs the CPUs within an epoch.

// CPUTimelines is one virtual clock per simulated CPU. The zero CPU count
// is clamped to 1. Each CPU's timeline is advanced only by the work the
// driver runs on that CPU (the same ownership discipline a Task has), while
// Makespan is a barrier-time operation.
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

// Now returns CPU cpu's current virtual time.
func (tl *CPUTimelines) Now(cpu int) int64 { return tl.now[tl.clamp(cpu)] }

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
	ev   Event
}

// An Event is what a barrier applies for one deferred event: Fire runs
// with the virtual time the event was deferred at. A driver can make a
// long-lived object its own event (a pointer in an interface is no new
// heap object), where a callback per deferral would be a closure each.
type Event interface {
	Fire(atNS int64)
}

// eventFunc is a callback as an Event.
type eventFunc func(atNS int64)

func (f eventFunc) Fire(atNS int64) { f(atNS) }

// Epochs coordinates per-CPU timelines with an epoch/barrier scheme. The
// virtual timeline is cut into fixed-length epochs; cross-CPU events raised
// during an epoch are deferred (Defer) and applied at the barrier ordered by
// (AtNS, CPU), ties in deferral order. The driver that owns the schedule
// calls Defer and Barrier on the one goroutine that drives the simulation
// (see the package doc); the barrier order does not depend on the order in
// which it ran the CPUs.
type Epochs struct {
	tl      *CPUTimelines
	epochNS int64
	index   int64
	events  []deferred
	// spare is the events list's second backing array. Barrier iterates
	// one while callbacks defer into the other, so an event deferred
	// during a barrier lands in the next epoch.
	spare   []deferred
	applied int64
}

// NewEpochs creates an epoch coordinator over the given timelines with the
// given epoch length (values < 1ns are clamped to a 100µs default).
func NewEpochs(tl *CPUTimelines, epochNS int64) *Epochs {
	if epochNS < 1 {
		epochNS = 100_000
	}
	return &Epochs{tl: tl, epochNS: epochNS}
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
// event's callback runs at the next Barrier, in (AtNS, CPU) order with
// ties in deferral order — so the barrier's merge is a pure function of
// what each CPU did, not of when the driver ran it.
func (e *Epochs) Defer(cpu int, atNS int64, fn func(atNS int64)) {
	e.DeferEvent(cpu, atNS, eventFunc(fn))
}

// DeferEvent is Defer with an Event in place of the callback.
func (e *Epochs) DeferEvent(cpu int, atNS int64, ev Event) {
	e.events = append(e.events, deferred{atNS: atNS, cpu: e.tl.clamp(cpu), ev: ev})
}

// Barrier ends the current epoch: every deferred event is applied in the
// deterministic (AtNS, CPU) order, ties in deferral order, and the epoch
// index advances. It returns the number of events
// applied. Laggard CPU clocks are left where they are — idle virtual time
// is not charged; the next dispatch on a CPU advances its clock to the
// work's ready time.
func (e *Epochs) Barrier() int {
	evs := e.events
	e.events = e.spare[:0]
	slices.SortStableFunc(evs, func(a, b deferred) int {
		if c := cmp.Compare(a.atNS, b.atNS); c != 0 {
			return c
		}
		return cmp.Compare(a.cpu, b.cpu)
	})
	for _, ev := range evs {
		ev.ev.Fire(ev.atNS)
	}
	clear(evs)
	e.spare = evs[:0]
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
