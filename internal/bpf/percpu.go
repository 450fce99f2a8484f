package bpf

// RingStats is a snapshot of a ring buffer's counters.
type RingStats struct {
	Submitted int64 // cumulative Submit calls
	Drained   int64 // cumulative samples pulled out by the consumer
	Dropped   int64 // cumulative overwrites
	Pending   int   // samples currently buffered
	// HighWater is the peak Pending since creation/Reset (overflow
	// forensics). A ring's host memory follows it, not Capacity: a ring
	// owns at most max(16, 2×HighWater) slots and slot buffers.
	HighWater int
	Capacity  int
}

// ringMinSlots is the slot count of a ring's first growth, from empty.
const ringMinSlots = 16

// cpuRing is one CPU's slice of a PerCPURing: a bounded FIFO with its own
// counters, like one CPU's mmap'd perf buffer. Its slot array starts empty
// and doubles, up to the ring set's per-CPU capacity, only when a
// submission finds every slot full, so a ring owns at most
// max(ringMinSlots, 2×high water) slots whatever its capacity. Slot backing
// arrays are reused across submissions (copy-in truncates and refills the
// slot), so a ring that has reached its high water, and whose head has
// gone round the slot array once, submits and drains with zero allocations.
type cpuRing struct {
	slots     [][]byte
	head      int // index of oldest entry
	count     int
	high      int
	submitted int64
	drained   int64
	dropped   int64
}

// grow doubles the full slot array (to ringMinSlots from empty, never past
// capacity) and rotates the live entries, oldest first, to index 0. A full
// array has no dead slot, so every slot buffer moves along for reuse.
func (r *cpuRing) grow(capacity int) {
	slots := make([][]byte, min(max(2*len(r.slots), ringMinSlots), capacity))
	n := copy(slots, r.slots[r.head:])
	copy(slots[n:], r.slots[:r.head])
	r.slots, r.head = slots, 0
}

// submit copies data into the next slot, overwriting the oldest entry when
// every slot is full. SubmitFrom grows a full ring that is below capacity
// first, so a full slot array here is a full ring. Growth stays out of
// submit: a call from it would push submit past the inliner's budget, and
// submit runs on every sample a Collector outputs (scripts/check.sh lint,
// submit_inlined).
func (r *cpuRing) submit(data []byte) {
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
}

func (r *cpuRing) drainBatch(dst *Batch, max int) int {
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
	return n
}

func (r *cpuRing) stats(capacity int) RingStats {
	return RingStats{
		Submitted: r.submitted,
		Drained:   r.drained,
		Dropped:   r.dropped,
		Pending:   r.count,
		HighWater: r.high,
		Capacity:  capacity,
	}
}

// PerCPURing is the bounded channel between the kernel-space Collector and
// the user-space Processor (paper §3.2): perf_event_output submits a
// completed sample, the Processor drains batches from user space, and a
// full ring overwrites its oldest sample and counts a drop — the Collector
// never blocks, which is TScout's "no back pressure" guarantee. There is
// one bounded ring per simulated CPU, as the Linux perf subsystem allocates
// its buffers, and submissions route by the submitting task's CPU. Those
// CPUs interleave only in virtual time (see the sim package doc), so a
// ring needs no lock. Each ring drops only at perCPUCap, but owns host
// memory only for what it has buffered (cpuRing): a ring set costs its
// high water, not its capacity, and ring memory is never charged in
// virtual time.
type PerCPURing struct {
	name      string
	perCPUCap int
	rings     []cpuRing
}

// NewPerCPURing creates a ring set of numCPUs rings holding at most
// perCPUCapacity samples each. No ring owns a slot before its first
// submission.
func NewPerCPURing(name string, numCPUs, perCPUCapacity int) *PerCPURing {
	if numCPUs < 1 {
		numCPUs = 1
	}
	if perCPUCapacity < 1 {
		perCPUCapacity = 1
	}
	return &PerCPURing{name: name, perCPUCap: perCPUCapacity, rings: make([]cpuRing, numCPUs)}
}

// Name returns the ring set's name.
func (r *PerCPURing) Name() string { return r.name }

// KeySize returns 0; ring buffers are keyless.
func (r *PerCPURing) KeySize() int { return 0 }

// ValueSize returns 0; samples are variable-length.
func (r *PerCPURing) ValueSize() int { return 0 }

// MaxEntries returns the total capacity across all CPU rings.
func (r *PerCPURing) MaxEntries() int { return r.perCPUCap * len(r.rings) }

// NumCPUs returns the number of CPU rings.
func (r *PerCPURing) NumCPUs() int { return len(r.rings) }

// Len returns the number of buffered samples across all CPU rings.
func (r *PerCPURing) Len() int {
	n := 0
	for i := range r.rings {
		n += r.rings[i].count
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
	ring := &r.rings[cpu%len(r.rings)]
	if ring.count == len(ring.slots) && ring.count < r.perCPUCap {
		ring.grow(r.perCPUCap)
	}
	ring.submit(data)
}

// Submit routes to CPU 0: compatibility with callers (tests, benchmarks)
// that inject samples without a task context.
func (r *PerCPURing) Submit(data []byte) { r.SubmitFrom(0, data) }

// DrainBatch removes up to max samples (0 or less = everything) from one
// CPU's ring in submission order, appending them to dst's contiguous
// buffer, and returns the number drained. No per-sample slice is allocated.
func (r *PerCPURing) DrainBatch(cpu int, dst *Batch, max int) int {
	if cpu < 0 || cpu >= len(r.rings) {
		return 0
	}
	return r.rings[cpu].drainBatch(dst, max)
}

// CPUStats snapshots every CPU ring, indexed by CPU.
func (r *PerCPURing) CPUStats() []RingStats {
	out := make([]RingStats, len(r.rings))
	for i := range r.rings {
		out[i] = r.rings[i].stats(r.perCPUCap)
	}
	return out
}

// Stats aggregates the per-CPU counters into one snapshot (Capacity is the
// total across rings).
func (r *PerCPURing) Stats() RingStats {
	var agg RingStats
	for i := range r.rings {
		s := r.rings[i].stats(r.perCPUCap)
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

// Reset clears every CPU ring and its statistics, and releases the rings'
// slots: a reset ring grows again from its next submission.
func (r *PerCPURing) Reset() { clear(r.rings) }
