package kernel

import "math/rand"

// Interleaver replays a seeded pseudo-random schedule over a set of task
// workloads: every Run tick picks one workload that still has quanta left
// and executes its next quantum. The same seed and Add order always yield
// the same schedule, so a harness can reproduce a specific interleaving of
// concurrent workloads from a single corpus seed — the deterministic
// stand-in for OS scheduling that the pipeline invariant tests drive their
// randomized marker workloads with.
type Interleaver struct {
	kernel  *Kernel
	rng     *rand.Rand
	runners []*ivRunner
}

type ivRunner struct {
	name string
	cpu  int
	left int
	next int
	step func(i int)
}

// NewInterleaver creates a deterministic scheduler on this kernel. Each
// switch between different workloads during Run is charged as one context
// switch on the kernel's global counter.
//
//tsvet:ignore unused-export interleaver test hook: tests write their interleavings as seeded schedules
func (k *Kernel) NewInterleaver(seed int64) *Interleaver {
	return &Interleaver{kernel: k, rng: rand.New(rand.NewSource(seed))}
}

// AddOn registers a workload of n quanta on the given CPU lane. step is
// called with the quantum index 0..n-1, in order, but interleaved with the
// quanta of every other registered workload. The lane scopes
// context-switch accounting: a switch is charged when a lane's
// newly-picked workload differs from the previous workload *on that lane*,
// matching a per-CPU run queue — two workloads ping-ponging on different
// CPUs do not context-switch each other. With every workload on lane 0
// this degenerates to global accounting.
//
//tsvet:ignore unused-export interleaver test hook: tests register their workloads with it
func (iv *Interleaver) AddOn(name string, cpu int, n int, step func(i int)) {
	if cpu < 0 {
		cpu = 0
	}
	iv.runners = append(iv.runners, &ivRunner{name: name, cpu: cpu, left: n, step: step})
}

// Run executes every registered quantum under the seeded schedule and
// returns the trace: the workload name chosen at each tick. Workloads are
// consumed fully; Run leaves the Interleaver empty for reuse.
//
//tsvet:ignore unused-export interleaver test hook: tests replay their seeded schedules with it
func (iv *Interleaver) Run() []string {
	var trace []string
	live := append([]*ivRunner(nil), iv.runners...)
	iv.runners = nil
	prevOnLane := make(map[int]string)
	for len(live) > 0 {
		i := iv.rng.Intn(len(live))
		r := live[i]
		if prev, ok := prevOnLane[r.cpu]; ok && prev != r.name {
			iv.kernel.CtxSwitches++
		}
		prevOnLane[r.cpu] = r.name
		trace = append(trace, r.name)
		r.step(r.next)
		r.next++
		r.left--
		if r.left == 0 {
			live = append(live[:i], live[i+1:]...)
		}
	}
	return trace
}
