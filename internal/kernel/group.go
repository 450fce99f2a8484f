package kernel

import "fmt"

// TaskGroup models a pool of worker threads that service one component in
// parallel — TScout's sharded Processor drains per-subsystem shards on such
// a pool. Each member is an ordinary Task with its own clock and
// instrumentation accounting, so per-shard work is charged to the thread
// that performed it and the group's elapsed time is the makespan (max over
// members), not the sum: the virtual-time analogue of the paper's
// single-thread vs multi-thread Processor comparison. Like a Task, a group
// belongs to the component that owns it (the Processor's drain).
type TaskGroup struct {
	tasks []*Task
}

// NewTaskGroup registers n worker tasks named name-0..name-(n-1).
func (k *Kernel) NewTaskGroup(name string, n int) *TaskGroup {
	if n < 1 {
		n = 1
	}
	g := &TaskGroup{tasks: make([]*Task, n)}
	for i := range g.tasks {
		g.tasks[i] = k.NewTask(fmt.Sprintf("%s-%d", name, i))
	}
	return g
}

// Size returns the number of threads in the group.
func (g *TaskGroup) Size() int { return len(g.tasks) }

// Task returns the i'th member thread.
func (g *TaskGroup) Task(i int) *Task { return g.tasks[i] }

// Now returns the group's makespan: the clock of its furthest-ahead member.
func (g *TaskGroup) Now() int64 {
	var max int64
	for _, t := range g.tasks {
		if n := t.Clock.Now(); n > max {
			max = n
		}
	}
	return max
}

// Barrier advances every member to the group's makespan and returns it:
// the threads sleep until the next common wake-up (a drain tick), so
// per-thread idle time is charged as waiting, not reclaimed as capacity.
func (g *TaskGroup) Barrier() int64 {
	now := g.Now()
	for _, t := range g.tasks {
		t.Clock.AdvanceTo(now)
	}
	return now
}
