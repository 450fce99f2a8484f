package kernel

import (
	"fmt"
	"math/rand"
	"sort"
)

// FaultKind enumerates the injectable failure modes of the marker delivery
// path. Each kind models a hazard a real TScout deployment survives by
// discarding-and-counting rather than by archiving corrupt samples: threads
// dying between BEGIN and END, the scheduler migrating a task mid-OU,
// hardware counters wrapping, rings overflowing under bursts, and marker
// events being lost or delivered twice.
type FaultKind int

// Injectable fault kinds.
const (
	// FaultDropMarker suppresses one marker delivery entirely: the
	// tracepoint records no hit and the attached Collector never runs
	// (a lost perf event).
	FaultDropMarker FaultKind = iota
	// FaultDupMarker delivers one marker twice: two hits, two Collector
	// executions with identical arguments (a replayed event).
	FaultDupMarker
	// FaultMigrate moves the hitting task to another CPU immediately
	// before the marker is delivered, so a BEGIN taken on one CPU can be
	// paired with an END read on another.
	FaultMigrate
	// FaultKillTask asks the workload driver to kill the hitting task
	// after this marker: the task abandons any in-flight OU and exits,
	// and its pid becomes reusable. The kernel cannot kill the task
	// itself — task lifetime belongs to the driver — so the fault is
	// surfaced through TakePendingKill.
	FaultKillTask
	// FaultCounterWrap rolls the hitting task's enabled perf counters
	// backwards, so the next END reads a lower raw count than its BEGIN
	// snapshot (a hardware counter overflow between the markers).
	FaultCounterWrap
	// FaultRingBurst asks the workload driver to run Count extra OU
	// cycles back-to-back without draining, overflowing the bounded
	// per-CPU rings (surfaced through TakePendingBurst).
	FaultRingBurst

	numFaultKinds
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultDropMarker:
		return "drop-marker"
	case FaultDupMarker:
		return "dup-marker"
	case FaultMigrate:
		return "migrate"
	case FaultKillTask:
		return "kill-task"
	case FaultCounterWrap:
		return "counter-wrap"
	case FaultRingBurst:
		return "ring-burst"
	}
	return fmt.Sprintf("fault-%d", int(k))
}

// counterWrapDelta is how far FaultCounterWrap rolls each enabled counter
// back: far enough that the following END's unsigned delta computation
// underflows into the absurd range the Processor discards.
const counterWrapDelta = float64(uint64(1) << 44)

// Fault is one scheduled fault: Kind fires when simulated CPU OnCPU's own
// hit counter reaches AtHit (0-based, counted over attached-tracepoint hits
// delivered on that CPU only). CPU parameterizes FaultMigrate (the
// destination, clamped into the kernel's range); Count parameterizes
// FaultRingBurst.
//
// A CPU's counter advances only when that CPU delivers a marker, so its
// value at any delivery is a function of the schedule alone, never of how
// the host interleaves the CPUs: plans are deterministic under real
// interleaving. A hit counts against the CPU it was delivered on, even when
// a migrate fault moves the task during it.
type Fault struct {
	Kind  FaultKind
	AtHit int64
	CPU   int
	Count int
	OnCPU int
}

// FaultPlan is a schedule of faults, ordered by AtHit. Plans are
// deterministic: the same plan against the same workload injects the same
// faults at the same delivery points.
type FaultPlan []Fault

// GenFaultPlan derives a reproducible fault plan from a seed: n faults of
// pseudo-random kinds, fault i indexed against CPU i mod numCPUs and spread
// over the first maxHitPerCPU deliveries of that CPU's hit sequence.
// numCPUs also parameterizes migration targets. The same arguments always
// yield the same plan — the property the chaos fuzzer's corpus replay
// depends on. OnCPU takes no draw from the seeded stream, which the kinds,
// hit indexes and parameters alone consume.
//
//tsvet:ignore unused-export fault-injection test hook: the kernel and chaos tests derive their seeded fault plans from it
func GenFaultPlan(seed int64, n int, maxHitPerCPU int64, numCPUs int) FaultPlan {
	if n <= 0 || maxHitPerCPU <= 0 {
		return nil
	}
	if numCPUs < 1 {
		numCPUs = 1
	}
	rng := rand.New(rand.NewSource(seed))
	plan := make(FaultPlan, 0, n)
	for i := 0; i < n; i++ {
		f := Fault{
			Kind:  FaultKind(rng.Intn(int(numFaultKinds))),
			AtHit: rng.Int63n(maxHitPerCPU),
			OnCPU: i % numCPUs,
		}
		switch f.Kind {
		case FaultMigrate:
			f.CPU = rng.Intn(numCPUs)
		case FaultRingBurst:
			f.Count = 1 + rng.Intn(8)
		}
		plan = append(plan, f)
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].AtHit < plan[j].AtHit })
	return plan
}

// FaultInjector applies a FaultPlan to a kernel's marker delivery path.
// Delivery-level faults (drop, dup, migrate, counter-wrap) are applied
// inline by HitTracepoint; lifecycle faults (kill, ring burst) are queued
// for the workload driver to take after the marker call returns. Because
// every fault indexes its own CPU's hit counter, a schedule needs only each
// CPU's deliveries in a deterministic order, not the CPUs' interleaving.
type FaultInjector struct {
	cpus         map[int]*cpuFaultQueue
	pendingKill  bool
	pendingBurst int
	applied      [numFaultKinds]int64
}

// cpuFaultQueue is one simulated CPU's slice of a plan: its own delivery
// counter and the faults indexed against it, in AtHit order.
type cpuFaultQueue struct {
	hits int64
	plan []Fault
	next int
}

// NewFaultInjector creates an injector for a plan and installs it on k's
// marker delivery path, replacing any injector before it. Install before
// starting the workload: the injector's hit counter starts at the moment of
// installation.
//
//tsvet:ignore unused-export fault-injection test hook: only the kernel and chaos tests install injectors (scripts/check.sh one_chaos_driver)
func NewFaultInjector(k *Kernel, plan FaultPlan) *FaultInjector {
	fi := &FaultInjector{cpus: make(map[int]*cpuFaultQueue)}
	for _, f := range plan {
		q := fi.queue(f.OnCPU)
		q.plan = append(q.plan, f)
	}
	for _, q := range fi.cpus {
		p := q.plan
		sort.SliceStable(p, func(i, j int) bool { return p[i].AtHit < p[j].AtHit })
	}
	k.injector = fi
	return fi
}

// queue returns cpu's queue, creating an empty one on first use.
func (fi *FaultInjector) queue(cpu int) *cpuFaultQueue {
	q := fi.cpus[cpu]
	if q == nil {
		q = &cpuFaultQueue{}
		fi.cpus[cpu] = q
	}
	return q
}

// beforeHit counts one delivery against the CPU the task is on when the
// marker arrives, applies every fault that CPU's queue schedules at that
// hit index, and returns how many times the marker should be delivered
// (0 = dropped). Inline faults are applied to the hitting task directly.
func (fi *FaultInjector) beforeHit(t *Task) int {
	q := fi.queue(t.CPU())
	hit := q.hits
	q.hits++
	times := 1
	for q.next < len(q.plan) && q.plan[q.next].AtHit <= hit {
		f := q.plan[q.next]
		q.next++
		// A negative AtHit is behind the counter from the start: skipped,
		// never fired late.
		if f.AtHit == hit {
			times = fi.apply(f, t, times)
		}
	}
	return times
}

// apply fires one fault against the hitting task and returns the updated
// delivery multiplicity.
func (fi *FaultInjector) apply(f Fault, t *Task, times int) int {
	fi.applied[f.Kind]++
	switch f.Kind {
	case FaultDropMarker:
		times = 0
	case FaultDupMarker:
		times = 2
	case FaultMigrate:
		t.Migrate(f.CPU)
	case FaultKillTask:
		fi.pendingKill = true
	case FaultCounterWrap:
		t.Perf().InjectWrap(counterWrapDelta)
	case FaultRingBurst:
		fi.pendingBurst += f.Count
	}
	return times
}

// CPUHits returns how many marker deliveries the injector has observed on
// the given simulated CPU.
//
//tsvet:ignore unused-export fault-injection test hook: chaos tests check the per-CPU hit census with it
func (fi *FaultInjector) CPUHits(cpu int) int64 {
	if q := fi.cpus[cpu]; q != nil {
		return q.hits
	}
	return 0
}

// Applied returns how many faults of a kind have fired.
//
//tsvet:ignore unused-export fault-injection test hook: chaos tests count the faults that fired with it
func (fi *FaultInjector) Applied(k FaultKind) int64 {
	if k < 0 || k >= numFaultKinds {
		return 0
	}
	return fi.applied[k]
}

// TakePendingKill reports (and clears) a queued kill-task fault. A driver
// that injects faults polls it after each marker call and, when set,
// abandons the task's in-flight OUs and calls Kernel.ExitTask.
//
//tsvet:ignore unused-export fault-injection test hook: the chaos harness plays the driver that abandons a killed task
func (fi *FaultInjector) TakePendingKill() bool {
	k := fi.pendingKill
	fi.pendingKill = false
	return k
}

// TakePendingBurst reports (and clears) the queued ring-burst OU count.
//
//tsvet:ignore unused-export fault-injection test hook: the chaos harness plays the driver that bursts the ring
func (fi *FaultInjector) TakePendingBurst() int {
	n := fi.pendingBurst
	fi.pendingBurst = 0
	return n
}
