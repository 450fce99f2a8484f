package bpf

import "slices"

// RingStats is a snapshot of a ring buffer's counters.
type RingStats struct {
	Submitted int64 // cumulative Submit calls
	Drained   int64 // cumulative samples pulled out by the consumer
	Dropped   int64 // cumulative overwrites
	Pending   int   // samples currently buffered
	// HighWater is the peak Pending since creation/Reset (overflow
	// forensics). A ring's host memory follows it, not Capacity: a ring
	// owns at most max(16, 2×HighWater) slots, each as wide as the longest
	// sample it has held.
	HighWater int
	Capacity  int
}

// ringMinSlots is the slot count of a ring's first growth, from empty.
const ringMinSlots = 16

// cpuRing is one CPU's slice of a PerCPURing: a bounded FIFO with its own
// counters, like one CPU's mmap'd perf buffer. Its samples live in one byte
// arena of fixed-width slots: slot i is buf[i*width : i*width+lens[i]], and
// width is the longest sample the ring has held (the Collector always
// submits tscout.SampleMaxBytes, so in production the first sample sets it
// for good). The arena starts empty and doubles its slot count, up to the
// ring set's per-CPU capacity, only when a submission finds every slot
// full, so a ring owns at most max(ringMinSlots, 2×high water) slots
// whatever its capacity. Submission copies into the arena in place, so a
// ring allocates only when it grows: two objects a doubling or widening,
// and the arena holds no pointer for the GC to scan.
type cpuRing struct {
	buf       []byte  // len(lens) slots of width bytes each
	lens      []int32 // each slot's sample length
	width     int
	head      int // index of oldest entry
	count     int
	high      int
	submitted int64
	drained   int64
	dropped   int64
}

// grow re-lays the ring into a new arena: it doubles the slot count of a
// full ring (to ringMinSlots from empty, never past capacity) and widens
// the slots to need bytes when a longer sample arrives. The live entries
// move, oldest first, to slot 0.
func (r *cpuRing) grow(capacity, need int) {
	slots := len(r.lens)
	if r.count == slots {
		slots = min(max(2*slots, ringMinSlots), capacity)
	}
	width := max(r.width, need)
	buf, lens := make([]byte, slots*width), make([]int32, slots)
	for i := 0; i < r.count; i++ {
		j := (r.head + i) % len(r.lens)
		lens[i] = int32(copy(buf[i*width:], r.buf[j*r.width:j*r.width+int(r.lens[j])]))
	}
	r.buf, r.lens, r.width, r.head = buf, lens, width, 0
}

// submit copies data into the next slot, overwriting the oldest entry when
// every slot is full. SubmitFrom grows a full ring that is below capacity,
// and widens the slots for a longer sample, first, so a full slot array
// here is a full ring and data fits its slot. Growth stays out of submit:
// a call from it would push submit past the inliner's budget, and submit
// runs on every sample a Collector outputs (scripts/check.sh lint,
// submit_inlined).
func (r *cpuRing) submit(data []byte) {
	slot := (r.head + r.count) % len(r.lens)
	if r.count == len(r.lens) {
		// Full: overwrite the oldest (TScout never blocks the submitter).
		slot = r.head
		r.head = (r.head + 1) % len(r.lens)
		r.dropped++
	} else {
		r.count++
		if r.count > r.high {
			r.high = r.count
		}
	}
	r.lens[slot] = int32(copy(r.buf[slot*r.width:], data))
	r.submitted++
}

// drainBatch lends up to max of the oldest entries (0 or less = all) to dst
// in submission order. The arena keeps its bytes: a lent entry stays as it
// was until the next submission to this ring overwrites its slot.
func (r *cpuRing) drainBatch(dst *Batch, max int) int {
	n := r.count
	if max > 0 && max < n {
		n = max
	}
	for i := 0; i < n; i++ {
		off := r.head * r.width
		dst.Append(r.buf[off : off+int(r.lens[r.head])])
		r.head = (r.head + 1) % len(r.lens)
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

// NumCPUs returns the number of CPU rings.
func (r *PerCPURing) NumCPUs() int { return len(r.rings) }

// SubmitFrom copies data into the given CPU's ring, overwriting the oldest
// sample (counted as dropped) when full. Out-of-range CPUs wrap, so a task
// on a CPU the ring set does not cover still lands deterministically.
func (r *PerCPURing) SubmitFrom(cpu int, data []byte) {
	if cpu < 0 {
		cpu = 0
	}
	ring := &r.rings[cpu%len(r.rings)]
	if ring.count == len(ring.lens) && ring.count < r.perCPUCap || len(data) > ring.width {
		ring.grow(r.perCPUCap, len(data))
	}
	ring.submit(data)
}

// Submit routes to CPU 0: compatibility with callers (tests, benchmarks)
// that inject samples without a task context.
func (r *PerCPURing) Submit(data []byte) { r.SubmitFrom(0, data) }

// DrainBatch removes up to max samples (0 or less = everything) from one
// CPU's ring in submission order, lending them to dst, and returns the
// number drained. Nothing is copied or allocated per sample: each sample in
// dst is its slot's bytes in the ring's arena, valid until the next
// submission to that CPU's ring (or Reset), so read a batch before
// submitting again.
func (r *PerCPURing) DrainBatch(cpu int, dst *Batch, max int) int {
	if cpu < 0 || cpu >= len(r.rings) {
		return 0
	}
	return r.rings[cpu].drainBatch(dst, max)
}

// AppendCPUStats appends a snapshot of every CPU ring to dst, in CPU
// order, and returns the extended slice: a caller that polls every period
// passes the previous snapshot truncated, and takes no allocation once it
// has held one.
func (r *PerCPURing) AppendCPUStats(dst []RingStats) []RingStats {
	dst = slices.Grow(dst, len(r.rings))
	for i := range r.rings {
		dst = append(dst, r.rings[i].stats(r.perCPUCap))
	}
	return dst
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
