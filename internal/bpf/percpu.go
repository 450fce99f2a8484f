package bpf

import "sync"

// RingStats is a consistent snapshot of a ring buffer's counters, taken
// under one lock so submitted/dropped/pending cannot tear against a
// concurrent Submit (the accounting hazard behind stale feedback deltas).
type RingStats struct {
	Submitted int64 // cumulative Submit calls
	Drained   int64 // cumulative samples pulled out by the consumer
	Dropped   int64 // cumulative overwrites
	Pending   int   // samples currently buffered
	HighWater int   // peak Pending since creation/Reset (overflow forensics)
	Capacity  int
}

// cpuRing is one CPU's slice of a PerCPURing: a bounded FIFO with its own
// lock and counters, like one CPU's mmap'd perf buffer. Slot backing
// arrays are reused across submissions (copy-in truncates and refills the
// slot), so a warmed ring submits and drains with zero allocations. The
// trailing pad keeps neighboring rings' hot fields off one cache line —
// per-CPU isolation is the whole point of the structure.
type cpuRing struct {
	mu        sync.Mutex
	slots     [][]byte // guarded by mu
	head      int      // index of oldest entry; guarded by mu
	count     int      // guarded by mu
	high      int      // guarded by mu
	submitted int64    // guarded by mu
	drained   int64    // guarded by mu
	dropped   int64    // guarded by mu
	_         [64]byte
}

func (r *cpuRing) submit(data []byte) {
	r.mu.Lock()
	slot := (r.head + r.count) % len(r.slots)
	if r.count == len(r.slots) {
		// Full: overwrite the oldest (TScout never blocks the submitter).
		slot = r.head
		r.head = (r.head + 1) % len(r.slots)
		r.dropped++
	} else {
		r.count++
		if r.count > r.high {
			r.high = r.count
		}
	}
	r.slots[slot] = append(r.slots[slot][:0], data...)
	r.submitted++
	r.mu.Unlock()
}

func (r *cpuRing) drainBatch(dst *Batch, max int) int {
	r.mu.Lock()
	n := r.count
	if max > 0 && max < n {
		n = max
	}
	for i := 0; i < n; i++ {
		dst.Append(r.slots[r.head])
		r.head = (r.head + 1) % len(r.slots)
	}
	r.count -= n
	r.drained += int64(n)
	r.mu.Unlock()
	return n
}

func (r *cpuRing) stats() RingStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RingStats{
		Submitted: r.submitted,
		Drained:   r.drained,
		Dropped:   r.dropped,
		Pending:   r.count,
		HighWater: r.high,
		Capacity:  len(r.slots),
	}
}

func (r *cpuRing) reset() {
	r.mu.Lock()
	for i := range r.slots {
		r.slots[i] = nil
	}
	r.head, r.count, r.high = 0, 0, 0
	r.submitted, r.drained, r.dropped = 0, 0, 0
	r.mu.Unlock()
}

// PerCPURing is the bounded channel between the kernel-space Collector and
// the user-space Processor (paper §3.2): perf_event_output submits a
// completed sample, the Processor drains batches from user space, and a
// full ring overwrites its oldest sample and counts a drop — the Collector
// never blocks, which is TScout's "no back pressure" guarantee. There is
// one bounded ring per simulated CPU, as the Linux perf subsystem allocates
// its buffers (what lets Processor threads scale without contending on one
// lock). Submissions route by the submitting task's CPU; each CPU's
// ring has its own mutex, so submitters on different CPUs never contend
// and a drain thread that owns a disjoint set of CPU rings never shares a
// lock with another drain thread.
type PerCPURing struct {
	name      string
	perCPUCap int
	rings     []cpuRing
}

// NewPerCPURing creates a ring set of numCPUs rings holding at most
// perCPUCapacity samples each.
func NewPerCPURing(name string, numCPUs, perCPUCapacity int) *PerCPURing {
	if numCPUs < 1 {
		numCPUs = 1
	}
	if perCPUCapacity < 1 {
		perCPUCapacity = 1
	}
	r := &PerCPURing{name: name, perCPUCap: perCPUCapacity, rings: make([]cpuRing, numCPUs)}
	for i := range r.rings {
		r.rings[i].slots = make([][]byte, perCPUCapacity) //tsvet:ignore guarded-by construction: the ring has not escaped, nothing can race yet
	}
	return r
}

// Name returns the ring set's name.
func (r *PerCPURing) Name() string { return r.name }

// KeySize returns 0; ring buffers are keyless.
func (r *PerCPURing) KeySize() int { return 0 }

// ValueSize returns 0; samples are variable-length.
func (r *PerCPURing) ValueSize() int { return 0 }

// MaxEntries returns the total capacity across all CPU rings.
func (r *PerCPURing) MaxEntries() int { return r.perCPUCap * len(r.rings) }

// PerCPUCapacity returns one CPU ring's capacity.
func (r *PerCPURing) PerCPUCapacity() int { return r.perCPUCap }

// NumCPUs returns the number of CPU rings.
func (r *PerCPURing) NumCPUs() int { return len(r.rings) }

// Len returns the number of buffered samples across all CPU rings.
func (r *PerCPURing) Len() int {
	n := 0
	for i := range r.rings {
		r.rings[i].mu.Lock()
		n += r.rings[i].count
		r.rings[i].mu.Unlock()
	}
	return n
}

// Lookup is unsupported on ring buffers and returns nil.
func (r *PerCPURing) Lookup(key []byte) []byte { return nil }

// Update submits value as a sample on CPU 0 (Map interface adapter).
func (r *PerCPURing) Update(key, value []byte) error {
	r.SubmitFrom(0, value)
	return nil
}

// Delete is unsupported on ring buffers.
func (r *PerCPURing) Delete(key []byte) bool { return false }

// SubmitFrom copies data into the given CPU's ring, overwriting the oldest
// sample (counted as dropped) when full. Out-of-range CPUs wrap, so a task
// on a CPU the ring set does not cover still lands deterministically.
func (r *PerCPURing) SubmitFrom(cpu int, data []byte) {
	if cpu < 0 {
		cpu = 0
	}
	r.rings[cpu%len(r.rings)].submit(data)
}

// Submit routes to CPU 0: compatibility with callers (tests, benchmarks)
// that inject samples without a task context.
func (r *PerCPURing) Submit(data []byte) { r.SubmitFrom(0, data) }

// DrainBatch removes up to max samples (0 or less = everything) from one
// CPU's ring in submission order, appending them to dst's contiguous
// buffer, and returns the number drained. One lock acquisition covers the
// batch and no per-sample slice is allocated.
func (r *PerCPURing) DrainBatch(cpu int, dst *Batch, max int) int {
	if cpu < 0 || cpu >= len(r.rings) {
		return 0
	}
	return r.rings[cpu].drainBatch(dst, max)
}

// RingStats returns a consistent snapshot of one CPU ring's counters.
func (r *PerCPURing) RingStats(cpu int) RingStats {
	if cpu < 0 || cpu >= len(r.rings) {
		return RingStats{}
	}
	return r.rings[cpu].stats()
}

// CPUStats snapshots every CPU ring, indexed by CPU.
func (r *PerCPURing) CPUStats() []RingStats {
	out := make([]RingStats, len(r.rings))
	for i := range r.rings {
		out[i] = r.rings[i].stats()
	}
	return out
}

// Stats aggregates the per-CPU counters into one snapshot (Capacity is the
// total across rings). Per-ring totals are each taken under that ring's
// lock; the sum is not a single atomic cut across CPUs, matching what
// reading per-CPU perf counters sequentially observes.
func (r *PerCPURing) Stats() RingStats {
	var agg RingStats
	for i := range r.rings {
		s := r.rings[i].stats()
		agg.Submitted += s.Submitted
		agg.Drained += s.Drained
		agg.Dropped += s.Dropped
		agg.Pending += s.Pending
		// HighWater aggregates as the peak of any single ring — summing
		// peaks reached at different times would overstate occupancy.
		if s.HighWater > agg.HighWater {
			agg.HighWater = s.HighWater
		}
		agg.Capacity += s.Capacity
	}
	return agg
}

// Reset clears every CPU ring and its statistics.
func (r *PerCPURing) Reset() {
	for i := range r.rings {
		r.rings[i].reset()
	}
}
