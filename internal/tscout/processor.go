package tscout

import (
	"errors"
	"fmt"
	"sync"

	"tscout/internal/bpf"
	"tscout/internal/kernel"
)

// Processor virtual-time costs.
const (
	// processSampleNS is the per-sample decode/transform/emit cost on
	// a Processor drain thread. It bounds the Processor's throughput,
	// which in turn drives drops and the §3.2 feedback mechanism.
	processSampleNS = 900
	// pollBaseNS is the fixed cost of one drain cycle per thread.
	pollBaseNS = 900
)

// feedbackDropThreshold is the per-period drop fraction above which the
// Processor asks the Sampler to back off (paper §3.2: "if the Processor
// cannot keep up, it has a feedback mechanism to decrease the sampling
// rate"). Both sides of the comparison are per-period deltas: comparing a
// period's drops against the run's cumulative submissions would make the
// trigger decay toward never firing as the run ages.
const feedbackDropThreshold = 0.10

// userQueueCapacity bounds the user-probe handoff queue; like the kernel
// ring buffer, it drops rather than blocking the DBMS. The user-space
// retrieval path is substantially slower per sample than the in-kernel
// one, which is why user-mode data generation plateaus at low sampling
// rates in Fig. 6.
const userQueueCapacity = 4096

// userDrainPenalty is how many times more expensive one user-probe sample
// is to retrieve than one kernel ring sample. Budget tokens and drain-
// thread time are both charged at this multiple.
const userDrainPenalty = 3

// maxSinkRetries bounds redelivery attempts for a batch the sink rejected.
// After the last attempt fails the points are dropped (SinkRetryDrops): a
// flaky sink degrades delivery, not intake.
const maxSinkRetries = 3

// maxRetryQueuePoints bounds the points parked in the sink retry queue; a
// persistently dead sink must not accumulate unbounded redelivery state.
const maxRetryQueuePoints = 64 * 8192

// corruptCounterLimit is the smallest counter delta treated as unsigned
// wraparound rather than real work. 2^62 events is centuries of CPU time:
// unreachable by any legitimate OU, but exactly where an end-before-begin
// subtraction lands after wrapping mod 2^64.
const corruptCounterLimit = uint64(1) << 62

// errCorruptMetrics marks a sample that decoded structurally but carries
// physically impossible metrics; callers count it as a CorruptDiscard, not
// a decode error.
var errCorruptMetrics = errors.New("tscout: corrupt sample metrics")

// metricsSane rejects metric vectors no real OU can produce: negative
// elapsed time or IO deltas (all derived from monotone clocks/byte counts)
// and counter deltas in the wraparound range. Mid-OU corruption that
// slips past the Collector's in-kernel checks — perf-counter wraparound
// faults, torn reads — is discarded here instead of poisoning a model.
func metricsSane(m Metrics) bool {
	if m.ElapsedNS < 0 || m.DiskReadBytes < 0 || m.DiskWriteBytes < 0 ||
		m.NetRecvBytes < 0 || m.NetSendBytes < 0 {
		return false
	}
	return m.Cycles < corruptCounterLimit &&
		m.Instructions < corruptCounterLimit &&
		m.CacheRefs < corruptCounterLimit &&
		m.CacheMisses < corruptCounterLimit &&
		m.RefCycles < corruptCounterLimit
}

// BatchHistBuckets is the number of drain-batch size buckets in
// ProcessorStats.BatchSizeHist.
const BatchHistBuckets = 6

// BatchHistLabels names the BatchSizeHist buckets, in order.
var BatchHistLabels = [BatchHistBuckets]string{"1", "2-4", "5-16", "17-64", "65-256", ">256"}

// histBucket maps a non-empty batch size to its histogram bucket.
func histBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 4:
		return 1
	case n <= 16:
		return 2
	case n <= 64:
		return 3
	case n <= 256:
		return 4
	}
	return 5
}

// globalRingIndex flattens (subsystem, cpu) into the subsystem-major ring
// index used for drain affinity and budget allocation. The layout is
// subsystem-major deliberately: with cpu-major indexing the index would be
// cpu*NumSubsystems+sub, and any parallelism dividing NumSubsystems (2 or 4
// drain threads against the fixed 4 subsystems) would map every CPU ring of
// a subsystem to one thread — serializing exactly the hot-subsystem
// workloads per-CPU rings exist to spread. Subsystem-major gives owner
// cpu%parallelism whenever the parallelism divides the CPU count, so one
// subsystem's rings fan out across all drain threads, and with one CPU it
// degenerates to the old per-subsystem round-robin distribution.
func globalRingIndex(cpu int, sub SubsystemID, numCPUs int) int {
	return int(sub)*numCPUs + cpu
}

// ringOwner is the drain-thread affinity map: global ring index g (or the
// user pseudo-ring index) is owned by exactly one of the parallelism drain
// threads, so no two threads ever touch the same ring's lock.
func ringOwner(g, parallelism int) int { return g % parallelism }

// BudgetForPeriod returns how many samples one Processor drain thread can
// handle in one drain period of the given virtual length.
func BudgetForPeriod(periodNS int64) int {
	b := int(periodNS / processSampleNS)
	if b < 1 {
		b = 1
	}
	return b
}

// Sink receives finished training points (e.g. a CSV writer, columnar
// segment writer, cloud uploader). The interface is batch-first: the
// Processor delivers everything one Drain produced with one WriteBatch
// call, so a sink amortizes its per-write overhead (lock acquisition, row
// encoding, syscalls) across a whole drain. A WriteBatch error counts
// against every point in the batch — the sink rejected the delivery as a
// unit. The sink is the only place a point lives after Drain: with a nil
// sink points are counted (Stats().Processed) and discarded.
//
// Sink calls are issued outside all Processor locks, so a Sink may call
// back into the Processor (stats, submissions) without deadlocking.
type Sink interface {
	// WriteBatch delivers one drained batch.
	WriteBatch(pts []TrainingPoint) error
	// Flush forces buffered output to the underlying target and reports
	// any deferred write error.
	Flush() error
	// Rows reports the number of points written so far.
	Rows() int64
}

// WritePoint is the point-write convenience over the batch-first Sink: it
// wraps the point in a one-element batch. Code that produces points one at
// a time (tests, examples) uses it; the Processor never does.
func WritePoint(s Sink, p TrainingPoint) error {
	return s.WriteBatch([]TrainingPoint{p})
}

// StickySink is optionally implemented by sinks whose write errors are
// permanent: once a write fails, every later write reports the same error
// (archive.Writer behaves this way — a torn segment cannot be resumed).
// The Processor consults StickyErr around flushes; a non-nil value makes
// delivery fail fast, dropping queued batches into SinkRetryDrops at once
// instead of burning maxSinkRetries backoff cycles per batch against a
// sink that is guaranteed never to accept them.
type StickySink interface {
	Sink
	// StickyErr reports the permanent write error, or nil while healthy.
	StickyErr() error
}

// SplitWeightFunc apportions a fused sample's metrics across its OUs
// (paper §5.2/§6: "we preprocess the DBMS's online models to break
// multiple OUs per operation into per-OU data points using offline
// models"). It returns a relative weight for one OU's share; weights are
// normalized over the sample. The default splits equally.
type SplitWeightFunc func(ou OUID, features []float64) float64

// Processor is TScout's user-space component (paper §3.2): a budgeted,
// self-observable drain pipeline. The per-CPU rings are distributed over
// the modeled drain threads by ringOwner and share one global token budget
// per drain period (a single thread-period times the configured
// parallelism), decode/transform runs batched per ring on the owning
// thread, and each drain's finished points leave for the Sink — their only
// store — as one batch, outside every lock.
type Processor struct {
	ts   *TScout
	sink Sink

	// pollMu serializes drain cycles: the modeled drain threads (kernel
	// tasks) are not safe for concurrent charging, and budget accounting
	// is per-period.
	pollMu sync.Mutex

	mu                  sync.Mutex
	group               *kernel.TaskGroup             // guarded by mu
	kernelStats         [NumSubsystems]SubsystemStats // guarded by mu
	userQueue           [][]byte                      // guarded by mu
	userStats           SubsystemStats                // guarded by mu
	lastRing            [NumSubsystems]bpf.RingStats  // guarded by mu
	lastUserSubmitted   int64                         // guarded by mu
	lastUserDropped     int64                         // guarded by mu
	splitter            SplitWeightFunc               // guarded by mu
	retryQueue          []retryBatch                  // guarded by mu
	sinkRetries         int64                         // guarded by mu
	sinkRetryDrops      int64                         // guarded by mu
	processed           int64                         // guarded by mu
	polls               int64                         // guarded by mu
	lastGlobalBudget    int                           // guarded by mu
	lastEffectiveBudget int                           // guarded by mu
	feedbackActions     int64                         // guarded by mu
	batchHist           [BatchHistBuckets]int64       // guarded by mu
	autopilot           AutopilotStats                // guarded by mu

	// drainBatches holds one reusable contiguous drain buffer per drain
	// thread (allocated with the task group); each worker goroutine only
	// ever touches its own entry, so batches need no locking and their
	// backing arrays are reused across drain cycles.
	drainBatches []bpf.Batch
}

// NewProcessor creates the Processor for a deployment.
func NewProcessor(ts *TScout, sink Sink) *Processor {
	return &Processor{ts: ts, sink: sink}
}

// SetSplitter installs the fused-sample metric splitter.
func (p *Processor) SetSplitter(f SplitWeightFunc) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.splitter = f
}

// Parallelism returns the number of modeled drain threads.
func (p *Processor) Parallelism() int {
	n := p.ts.cfg.ProcessorParallelism
	if n < 1 {
		n = 1
	}
	return n
}

// SubmitUserSample enqueues a sample produced by a user-level probe,
// dropping it if the bounded queue is full.
func (p *Processor) SubmitUserSample(buf []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.userStats.Submitted++
	if len(p.userQueue) >= userQueueCapacity {
		p.userStats.Dropped++
		return
	}
	p.userQueue = append(p.userQueue, buf)
}

// Task returns the first of the Processor's drain-thread tasks (created on
// first use), on which its processing time is charged. With the default
// parallelism of 1 this is the paper's single-threaded Processor.
func (p *Processor) Task() *kernel.Task {
	return p.taskGroup().Task(0)
}

func (p *Processor) taskGroup() *kernel.TaskGroup {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.group == nil {
		p.group = p.ts.kernel.NewTaskGroup("tscout-processor", p.Parallelism())
		p.drainBatches = make([]bpf.Batch, p.Parallelism())
		// Spread the drain threads across the simulated CPUs explicitly:
		// thread i runs on CPU i mod NumCPUs, a placement that is a
		// function of the parallelism alone (pid-recycling history would
		// otherwise pick the CPUs). On distinct CPUs the threads draw from
		// disjoint noise streams, which is what lets them charge drain
		// time concurrently (see Drain).
		n := p.ts.kernel.NumCPUs()
		for i := 0; i < p.Parallelism(); i++ {
			p.group.Task(i).Migrate(i % n)
		}
	}
	return p.group
}

// DrainOptions tunes one Processor drain cycle.
type DrainOptions struct {
	// Budget is the per-thread sample budget for the period (0 =
	// unlimited): the global token budget is Budget × parallelism, shared
	// by every CPU ring and the user queue, and degraded under overload.
	Budget int
}

// DrainResult reports what one drain cycle did.
type DrainResult struct {
	// Points is the number of training points produced.
	Points int
	// Drained is the number of samples pulled from the kernel rings and
	// the user queue.
	Drained int
	// Batches is the number of non-empty ring batches processed.
	Batches int
}

// drainTally accumulates one drain thread's work for the post-join merge;
// workers never touch the stats directly. The per-subsystem arrays count
// kernel-ring work, except points, which counts every point by the
// subsystem it decodes into — user-probe points included; the user* fields
// are the user pseudo-ring's own drain/decode accounting and are set only
// on the thread that owns it.
type drainTally struct {
	drained        [NumSubsystems]int64
	decodeErrs     [NumSubsystems]int64
	corrupt        [NumSubsystems]int64
	padded         [NumSubsystems]int64
	truncated      [NumSubsystems]int64
	points         [NumSubsystems]int64
	kernelSamples  int64
	userSamples    int64
	userDecodeErrs int64
	userCorrupt    int64
	userAdj        featureAdjust
	batches        int
	produced       int
	hist           [BatchHistBuckets]int64
}

// Drain runs one drain period over the per-CPU rings and returns what it
// produced. Each modeled drain thread owns a disjoint set of CPU rings
// (ring affinity: global ring index mod parallelism), the effective budget
// is waterfilled over each thread's rings, and two or more threads run as
// real goroutines — batched decode proceeds concurrently with zero
// cross-thread ring-lock sharing — while a single thread runs on the caller. Sustained oversubmission overwrites
// ring entries (kernel path) or overflows the user queue, and the
// pipeline's efficiency degrades under overload — the §6.2 dynamics behind
// Fig. 6's peak-then-decline curve.
func (p *Processor) Drain(opts DrainOptions) DrainResult {
	p.pollMu.Lock()
	group := p.taskGroup()
	parallelism := group.Size()
	// The drain threads wake together at the period tick.
	group.Barrier()
	for i := 0; i < parallelism; i++ {
		group.Task(i).ChargeUserNS(pollBaseNS)
	}

	// Consistent snapshots: per-subsystem aggregates for the period deltas
	// and per-CPU ring stats for demand, so deltas cannot tear against
	// concurrent submits.
	var ringNow [NumSubsystems]bpf.RingStats
	var cpuNow [NumSubsystems][]bpf.RingStats
	cols := [NumSubsystems]*Collector{}
	numCPUs := 1
	for _, sub := range AllSubsystems {
		if col := p.ts.CollectorFor(sub); col != nil {
			cols[sub] = col
			// Reap in-flight OU entries whose task generation died mid-OU
			// before taking the period's snapshots: a kill between BEGIN and
			// FEATURES must land in the StaleReaped orphan bucket this
			// period, not linger as a phantom in-flight entry a recycled pid
			// could never legally complete.
			col.ReapStale(p.ts.kernel.GenAlive)
			ringNow[sub] = col.Ring.Stats()
			cpuNow[sub] = col.Ring.CPUStats()
			if n := col.Ring.NumCPUs(); n > numCPUs {
				numCPUs = n
			}
		}
	}
	numRings := numCPUs * int(NumSubsystems)
	userIdx := numRings // user queue is the pseudo-ring after the last CPU ring

	// Per-period deltas, demand, and the degraded effective budget.
	var deltaSub, deltaDrop [NumSubsystems]int64
	p.mu.Lock()
	var demand int64
	for _, sub := range AllSubsystems {
		ds := ringNow[sub].Submitted - p.lastRing[sub].Submitted
		dd := ringNow[sub].Dropped - p.lastRing[sub].Dropped
		if ds < 0 || dd < 0 {
			// The ring was reset or regenerated (redeploy): its
			// cumulative counters restarted from zero.
			ds, dd = ringNow[sub].Submitted, ringNow[sub].Dropped
		}
		deltaSub[sub], deltaDrop[sub] = ds, dd
		p.lastRing[sub] = ringNow[sub]
		demand += ds
	}
	deltaUser := p.userStats.Submitted - p.lastUserSubmitted
	p.lastUserSubmitted = p.userStats.Submitted
	p.userStats.DeltaSubmitted = deltaUser
	p.userStats.DeltaDropped = p.userStats.Dropped - p.lastUserDropped
	p.lastUserDropped = p.userStats.Dropped
	demand += deltaUser * userDrainPenalty
	userPending := len(p.userQueue)

	globalBudget, effective := 0, 0
	if opts.Budget > 0 {
		// Demand-aware efficiency: arrival rate since the last poll
		// beyond the pipeline's capacity degrades it (queue thrash).
		globalBudget = opts.Budget * parallelism
		eff := float64(globalBudget)
		if demand > int64(globalBudget) {
			eff = float64(globalBudget) / (1 + 0.35*(float64(demand)/float64(globalBudget)-1))
		}
		effective = int(eff)
		if effective < 1 {
			effective = 1
		}
	}
	p.polls++
	p.lastGlobalBudget, p.lastEffectiveBudget = globalBudget, effective
	p.mu.Unlock()

	// Token demand per ring: one token per pending kernel sample,
	// userDrainPenalty tokens per pending user sample. Each thread
	// waterfills its own slice of the effective budget over the rings it
	// owns, so no ring can exceed one thread's period capacity and no two
	// threads compete for the same tokens.
	demands := make([]int, numRings+1)
	for _, sub := range AllSubsystems {
		for cpu, rs := range cpuNow[sub] {
			demands[globalRingIndex(cpu, sub, numCPUs)] = rs.Pending
		}
	}
	demands[userIdx] = userPending * userDrainPenalty

	alloc := make([]int, numRings+1)
	if opts.Budget > 0 {
		perThread := make([]int, parallelism)
		for i := range perThread {
			perThread[i] = effective / parallelism
		}
		for i := 0; i < effective%parallelism; i++ {
			perThread[i]++
		}
		for t := 0; t < parallelism; t++ {
			var idx []int
			var dem []int
			for g := 0; g <= userIdx; g++ {
				if ringOwner(g, parallelism) == t {
					idx = append(idx, g)
					dem = append(dem, demands[g])
				}
			}
			for j, a := range waterfill(dem, perThread[t]) {
				alloc[idx[j]] = a
			}
		}
	} else {
		copy(alloc, demands) // unlimited: drain everything
	}

	// Affinity-sharded drain: one worker per modeled drain thread, each
	// draining only the rings it owns into its own reusable batch buffer.
	// Workers buffer the points they produce per ring — ring ownership is
	// disjoint, so the slots are race-free — and the drain's batch is their
	// concatenation in global ring order. The order the sink sees is
	// therefore a pure function of the drained data: the same seed yields a
	// bit-identical sink stream at any drain parallelism.
	tallies := make([]drainTally, parallelism)
	ptsByRing := make([][]TrainingPoint, numRings+1)
	if parallelism == 1 {
		// The paper's single-threaded Processor: nothing to run beside, so
		// no goroutine to start and join every poll.
		p.drainWorker(0, 1, numRings, &cols, alloc, &tallies[0], ptsByRing)
	} else {
		var wg sync.WaitGroup
		for t := 0; t < parallelism; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				p.drainWorker(t, parallelism, numRings, &cols, alloc, &tallies[t], ptsByRing)
			}(t)
		}
		wg.Wait()
	}

	// Charge virtual time after the join: Task charging shares the kernel's
	// (unsynchronized, deterministic) noise stream, so it must run serially
	// — and in subsystem order on each batch's owning thread, the same
	// charge sequence the pre-affinity serial drain issued, so identical
	// seeded runs consume the noise stream identically.
	res := DrainResult{}
	for _, sub := range AllSubsystems {
		for t := range tallies {
			if n := tallies[t].drained[sub]; n > 0 {
				group.Task(t).ChargeUserNS(n * processSampleNS)
			}
		}
	}
	for t := range tallies {
		ty := &tallies[t]
		if ty.userSamples > 0 {
			group.Task(t).ChargeUserNS(ty.userSamples * processSampleNS * userDrainPenalty)
		}
		res.Points += ty.produced
		res.Drained += int(ty.kernelSamples + ty.userSamples)
		res.Batches += ty.batches
	}
	var batch []TrainingPoint
	if p.sink != nil {
		batch = make([]TrainingPoint, 0, res.Points)
		for _, pts := range ptsByRing {
			batch = append(batch, pts...)
		}
	}

	// Merge the per-period tallies into the stats; apart from SinkErrors
	// (charged at delivery) this is the only place the per-subsystem and
	// user-queue counters are written.
	p.mu.Lock()
	for _, sub := range AllSubsystems {
		var drained, decErr, corrupt, padded, truncated, points int64
		for t := range tallies {
			drained += tallies[t].drained[sub]
			decErr += tallies[t].decodeErrs[sub]
			corrupt += tallies[t].corrupt[sub]
			padded += tallies[t].padded[sub]
			truncated += tallies[t].truncated[sub]
			points += tallies[t].points[sub]
		}
		ks := &p.kernelStats[sub]
		// User-probe points land in the subsystem they decode into, whether
		// or not that subsystem has a kernel Collector.
		ks.Points += points
		if cols[sub] == nil {
			continue
		}
		ks.Submitted += deltaSub[sub]
		ks.Dropped += deltaDrop[sub]
		ks.Drained += drained
		ks.DecodeErrors += decErr
		ks.CorruptDiscards += corrupt
		ks.PaddedFeatures += padded
		ks.TruncatedFeatures += truncated
		ks.DeltaSubmitted = deltaSub[sub]
		ks.DeltaDropped = deltaDrop[sub]
		ks.DeltaDrained = drained
	}
	ut := &tallies[ringOwner(userIdx, parallelism)]
	p.userStats.Drained += ut.userSamples
	p.userStats.DeltaDrained = ut.userSamples
	p.userStats.DecodeErrors += ut.userDecodeErrs
	p.userStats.CorruptDiscards += ut.userCorrupt
	p.userStats.PaddedFeatures += ut.userAdj.padded
	p.userStats.TruncatedFeatures += ut.userAdj.truncated
	for t := range tallies {
		for b, c := range tallies[t].hist {
			p.batchHist[b] += c
		}
	}
	p.processed += int64(res.Points)
	p.mu.Unlock()

	if !p.ts.cfg.DisableProcessorFeedback {
		p.applyFeedback(deltaSub, deltaDrop)
	}
	p.pollMu.Unlock()

	// Sink delivery happens strictly outside every Processor lock.
	p.deliver(batch)
	return res
}

// drainWorker is one drain thread's share of a cycle: drain each owned CPU
// ring into the thread's reusable batch, decode the batch into the ring's
// slot of ptsByRing, and (for the owner of the user pseudo-ring) drain the
// user-probe queue into the pseudo-ring slot. Everything it touches is
// either thread-owned (batch, tally, ring set, its ptsByRing slots) or
// internally synchronized (user queue); Drain concatenates the slots
// post-join in ring order so the sink order is parallelism-independent.
func (p *Processor) drainWorker(t, parallelism, numRings int, cols *[NumSubsystems]*Collector, alloc []int, tally *drainTally, ptsByRing [][]TrainingPoint) {
	batch := &p.drainBatches[t]
	numCPUs := numRings / int(NumSubsystems)
	for g := t; g < numRings; g += parallelism {
		if alloc[g] == 0 {
			continue
		}
		sub := SubsystemID(g / numCPUs)
		cpu := g % numCPUs
		col := cols[sub]
		if col == nil {
			continue
		}
		batch.Reset()
		n := col.Ring.DrainBatch(cpu, batch, alloc[g])
		if n == 0 {
			continue
		}
		tally.kernelSamples += int64(n)
		tally.drained[sub] += int64(n)
		tally.batches++
		tally.hist[histBucket(n)]++

		var adj featureAdjust
		pts, corrupt, decodeErrs := p.decodeBatch(batch, &adj)
		ptsByRing[g] = pts
		tally.corrupt[sub] += corrupt
		tally.decodeErrs[sub] += decodeErrs
		tally.points[sub] += int64(len(pts))
		tally.padded[sub] += adj.padded
		tally.truncated[sub] += adj.truncated
		tally.produced += len(pts)
	}

	// User-probe pseudo-ring: tokens buy 1/userDrainPenalty samples each.
	if ringOwner(numRings, parallelism) != t || alloc[numRings] == 0 {
		return
	}
	userSamples := alloc[numRings] / userDrainPenalty
	if userSamples == 0 {
		userSamples = 1 // partial-token rounding; never starve the queue
	}
	var bufs [][]byte
	p.mu.Lock()
	if userSamples < len(p.userQueue) {
		bufs = append(bufs, p.userQueue[:userSamples]...)
		p.userQueue = append([][]byte(nil), p.userQueue[userSamples:]...)
	} else {
		bufs = p.userQueue
		p.userQueue = nil
	}
	p.mu.Unlock()
	tally.userSamples = int64(len(bufs))
	pts, corrupt, decodeErrs := p.decodeBatch(userBatch(bufs), &tally.userAdj)
	tally.userCorrupt, tally.userDecodeErrs = corrupt, decodeErrs
	// Points count toward the subsystem they decode into, while the
	// drain/decode accounting above stays on the user-queue stats.
	for _, tp := range pts {
		tally.points[tp.Subsystem]++
	}
	ptsByRing[numRings] = pts
	tally.produced += len(pts)
}

// waterfill distributes tokens across shards in proportion to demand,
// redistributing capacity unclaimed by underloaded shards, so the sum of
// allocations never exceeds tokens and a single hot shard cannot starve
// the others.
func waterfill(demands []int, tokens int) []int {
	alloc := make([]int, len(demands))
	if tokens <= 0 {
		return alloc
	}
	remaining := tokens
	for remaining > 0 {
		var open []int
		need := 0
		for i, d := range demands {
			if alloc[i] < d {
				open = append(open, i)
				need += d - alloc[i]
			}
		}
		if len(open) == 0 {
			break
		}
		if need <= remaining {
			for _, i := range open {
				remaining -= demands[i] - alloc[i]
				alloc[i] = demands[i]
			}
			break
		}
		share := remaining / len(open)
		if share == 0 {
			for _, i := range open {
				if remaining == 0 {
					break
				}
				alloc[i]++
				remaining--
			}
			break
		}
		for _, i := range open {
			give := share
			if d := demands[i] - alloc[i]; give > d {
				give = d
			}
			alloc[i] += give
			remaining -= give
		}
	}
	return alloc
}

// retryBatch is one sink delivery: the points, how many attempts have
// failed (0 for a drain's fresh batch), and the poll count before which the
// next attempt must not run (exponential backoff in drain periods).
type retryBatch struct {
	pts       []TrainingPoint
	attempts  int
	notBefore int64
}

// deliver hands the sink every retry batch whose backoff has expired and
// then the drain's fresh batch. It holds no Processor lock across
// WriteBatch, so a slow sink only delays delivery and a re-entrant sink —
// one that submits samples or reads stats — cannot deadlock intake.
//
// A WriteBatch error counts against every point in the batch: SinkErrors is
// charged on a batch's first failure only, and the batch is parked for
// redelivery with bounded exponential backoff — notBefore lands strictly
// beyond the current poll count, so one pass cannot loop on a failing sink.
// Past maxSinkRetries attempts or maxRetryQueuePoints parked points it is
// dropped and counted (SinkRetryDrops): a dead sink costs delivery, never
// intake. A sink that reports a permanent error (StickySink) skips the
// backoff ladder: the batch in hand, every later one and the retry queue
// fail fast into SinkRetryDrops without another WriteBatch, since every
// redelivery against it is guaranteed futile.
func (p *Processor) deliver(fresh []TrainingPoint) {
	if p.sink == nil {
		return
	}
	p.mu.Lock()
	var due []retryBatch
	keep := p.retryQueue[:0]
	for _, rb := range p.retryQueue {
		if rb.notBefore <= p.polls {
			due = append(due, rb)
		} else {
			keep = append(keep, rb)
		}
	}
	p.retryQueue = keep
	p.mu.Unlock()
	if len(fresh) > 0 {
		due = append(due, retryBatch{pts: fresh})
	}

	dead := p.sinkStickyErr() != nil
	for _, rb := range due {
		if !dead {
			if rb.attempts > 0 {
				p.mu.Lock()
				p.sinkRetries++
				p.mu.Unlock()
			}
			if p.sink.WriteBatch(rb.pts) == nil {
				continue
			}
			dead = p.sinkStickyErr() != nil
		}
		p.mu.Lock()
		if rb.attempts == 0 {
			for _, tp := range rb.pts {
				p.kernelStats[tp.Subsystem].SinkErrors++
			}
		}
		if attempts := rb.attempts + 1; dead || attempts > maxSinkRetries || p.pendingRetryLocked()+len(rb.pts) > maxRetryQueuePoints {
			p.sinkRetryDrops += int64(len(rb.pts))
		} else {
			p.retryQueue = append(p.retryQueue, retryBatch{
				pts:      rb.pts,
				attempts: attempts,
				// 1<<attempts polls of backoff: 2, 4, 8 periods for attempts 1-3.
				notBefore: p.polls + int64(1)<<attempts,
			})
		}
		p.mu.Unlock()
	}
	if dead {
		p.mu.Lock()
		p.sinkRetryDrops += int64(p.pendingRetryLocked())
		p.retryQueue = nil
		p.mu.Unlock()
	}
}

// pendingRetryLocked counts the points parked in the retry queue.
func (p *Processor) pendingRetryLocked() int {
	n := 0
	for _, rb := range p.retryQueue {
		n += len(rb.pts)
	}
	return n
}

// sinkStickyErr returns the sink's self-reported permanent error, or nil
// for healthy sinks and sinks that don't implement StickySink.
func (p *Processor) sinkStickyErr() error {
	if ss, ok := p.sink.(StickySink); ok {
		return ss.StickyErr()
	}
	return nil
}

// featureAdjust counts feature-vector repairs made while transforming one
// batch (short vectors zero-padded, long vectors truncated).
type featureAdjust struct {
	padded    int64
	truncated int64
}

// fit counts the repair a vector of n wire features needs to reach an OU's
// declared width — truncated when longer, zero-padded when shorter — and
// returns how many of its words to keep.
func (adj *featureAdjust) fit(n, width int) int {
	switch {
	case n > width:
		adj.truncated++
		return width
	case n < width:
		adj.padded++
	}
	return n
}

// sampleSource is what decodeBatch reads wire samples from: a drain
// thread's bpf.Batch for a kernel ring, the dequeued buffers for the user
// pseudo-ring.
type sampleSource interface {
	Len() int
	Sample(i int) []byte
}

type userBatch [][]byte

func (u userBatch) Len() int            { return len(u) }
func (u userBatch) Sample(i int) []byte { return u[i] }

// decodeBatch is the one sample-decode path: it turns one ring's drained
// samples into that ring's training points, in sample order, and counts the
// samples it had to discard (corrupt: structurally sound but physically
// impossible metrics; decodeErrs: everything else). Each sample is read in
// place, once: the header decode's structural checks, then metricsSane —
// before the OU lookup and before any fused expansion, since scaleMetrics
// would smear a wrapped counter across every part — then the OU.
//
// Feature vectors are normalized to the OU's declared width, so a point's
// Features and FeatureNames always have equal length (a short vector would
// misalign every feature after it in training); both repairs are counted in
// adj. The non-fused points' vectors are carved from one slab, allocated
// once the batch's declared widths are known and filled from the samples in
// a second walk over the points. The points and the slab are the sink's once
// delivered (an archive segment holds them until it seals, a rejected batch
// is parked for redelivery), so neither is ever reused: they are collected
// with the batch.
func (p *Processor) decodeBatch(src sampleSource, adj *featureAdjust) (pts []TrainingPoint, corrupt, decodeErrs int64) {
	n := src.Len()
	pts = make([]TrainingPoint, 0, n)
	// from[k] is the sample pts[k] takes its features from once the slab
	// exists; -1 for a fused part, which brings its own.
	from := make([]int32, 0, n)
	slabLen := 0
	for i := 0; i < n; i++ {
		buf := src.Sample(i)
		s, err := decodeHeader(buf)
		switch {
		case err != nil:
		case !metricsSane(s.Metrics):
			err = errCorruptMetrics
		case s.OU == FusedOUID:
			pts, err = p.expandFused(pts, buf, adj)
			for len(from) < len(pts) {
				from = append(from, -1)
			}
		default:
			def, ok := p.ts.OU(s.OU)
			if !ok {
				err = fmt.Errorf("tscout: sample for unregistered OU %d", s.OU)
				break
			}
			pts = append(pts, pointOf(def, s.PID, s.Metrics, nil))
			from = append(from, int32(i))
			slabLen += len(def.Features)
		}
		if errors.Is(err, errCorruptMetrics) {
			corrupt++
		} else if err != nil {
			decodeErrs++
		}
	}

	slab := make([]float64, slabLen)
	for k := range pts {
		if from[k] < 0 {
			continue
		}
		buf := src.Sample(int(from[k]))
		width := len(pts[k].FeatureNames)
		f := slab[:width:width]
		slab = slab[width:]
		for j, keep := 0, adj.fit(featureCount(buf), width); j < keep; j++ {
			f[j] = float64(featureWord(buf, j))
		}
		pts[k].Features = f
	}
	return pts, corrupt, decodeErrs
}

// expandFused appends one point per OU of a fused sample, the sample's
// metrics apportioned across them by the splitter's weights. On error pts
// comes back as it was handed in.
func (p *Processor) expandFused(pts []TrainingPoint, buf []byte, adj *featureAdjust) ([]TrainingPoint, error) {
	s, err := DecodeSample(buf)
	if err != nil {
		return pts, err
	}
	parts, err := DecodeFusedFeatures(s.Features)
	if err != nil {
		return pts, err
	}
	p.mu.Lock()
	split := p.splitter
	p.mu.Unlock()

	weights := make([]float64, len(parts))
	var total float64
	for i, part := range parts {
		w := 1.0
		if split != nil {
			w = split(part.OU, floatVector(part.Features, len(part.Features)))
			if w <= 0 {
				w = 1e-9
			}
		}
		weights[i] = w
		total += w
	}
	out := pts
	for i, part := range parts {
		def, ok := p.ts.OU(part.OU)
		if !ok {
			return pts, fmt.Errorf("tscout: fused sample for unregistered OU %d", part.OU)
		}
		adj.fit(len(part.Features), len(def.Features))
		out = append(out, pointOf(def, s.PID, scaleMetrics(s.Metrics, weights[i]/total),
			floatVector(part.Features, len(def.Features))))
	}
	return out, nil
}

// pointOf builds def's training point around a feature vector of its
// declared width.
func pointOf(def *OUDef, pid int, m Metrics, features []float64) TrainingPoint {
	return TrainingPoint{
		OU:           def.ID,
		OUName:       def.Name,
		Subsystem:    def.Subsystem,
		PID:          pid,
		Features:     features,
		FeatureNames: def.Features,
		Metrics:      m,
	}
}

// floatVector converts feature words into a vector of the given width:
// words beyond it are dropped, places beyond the words stay zero.
func floatVector(words []uint64, width int) []float64 {
	f := make([]float64, width)
	for j := 0; j < len(words) && j < width; j++ {
		f[j] = float64(words[j])
	}
	return f
}

func scaleMetrics(m Metrics, f float64) Metrics {
	return Metrics{
		ElapsedNS:      int64(float64(m.ElapsedNS) * f),
		Cycles:         uint64(float64(m.Cycles) * f),
		Instructions:   uint64(float64(m.Instructions) * f),
		CacheRefs:      uint64(float64(m.CacheRefs) * f),
		CacheMisses:    uint64(float64(m.CacheMisses) * f),
		RefCycles:      uint64(float64(m.RefCycles) * f),
		DiskReadBytes:  int64(float64(m.DiskReadBytes) * f),
		DiskWriteBytes: int64(float64(m.DiskWriteBytes) * f),
		NetRecvBytes:   int64(float64(m.NetRecvBytes) * f),
		NetSendBytes:   int64(float64(m.NetSendBytes) * f),
		AllocBytes:     int64(float64(m.AllocBytes) * f),
	}
}

// applyFeedback lowers sampling rates for subsystems whose ring buffers
// are overwriting faster than the Processor drains (paper §3.2). The
// trigger compares this period's drops against this period's submissions —
// delta against delta — so a drop burst fires the feedback no matter how
// long the run has been going.
func (p *Processor) applyFeedback(deltaSub, deltaDrop [NumSubsystems]int64) {
	for _, sub := range AllSubsystems {
		if deltaSub[sub] == 0 || deltaDrop[sub] == 0 {
			continue
		}
		if float64(deltaDrop[sub]) > feedbackDropThreshold*float64(deltaSub[sub]) {
			rate := p.ts.sampler.Rate(sub)
			if rate > 1 {
				// The feedback path stays on the sampler's shared stream:
				// it is serial under the poll lock in AllSubsystems order
				// at deterministic virtual times, and the golden
				// fingerprints pin its historical draw schedule.
				p.ts.sampler.setRateShared(sub, rate*8/10)
				p.mu.Lock()
				p.feedbackActions++
				p.mu.Unlock()
			}
		}
	}
}

// Stats returns a self-observability snapshot of the drain pipeline:
// per-shard counters (with per-period deltas), the last period's budget
// before and after overload degradation, feedback actions taken, and
// sink-delivery health. Ring submitted/dropped totals are read live so the
// snapshot reflects samples submitted since the last poll too.
func (p *Processor) Stats() ProcessorStats {
	var st ProcessorStats
	userClamps := p.ts.userWrapClamps()
	p.mu.Lock()
	st.Kernel = p.kernelStats
	st.User = p.userStats
	st.User.WrapClamps = userClamps
	st.Polls = p.polls
	st.GlobalBudget = p.lastGlobalBudget
	st.EffectiveBudget = p.lastEffectiveBudget
	st.FeedbackActions = p.feedbackActions
	st.SinkRetries = p.sinkRetries
	st.SinkRetryDrops = p.sinkRetryDrops
	st.PendingRetry = p.pendingRetryLocked()
	st.Processed = p.processed
	st.BatchSizeHist = p.batchHist
	st.Autopilot = p.autopilot
	p.mu.Unlock()
	for _, sub := range AllSubsystems {
		if col := p.ts.CollectorFor(sub); col != nil {
			rs := col.Ring.Stats()
			st.Kernel[sub].Submitted = rs.Submitted
			st.Kernel[sub].Dropped = rs.Dropped
			st.Kernel[sub].Orphans = col.Orphans()
			st.Rings[sub] = col.Ring.CPUStats()
			st.Codegen[sub] = col.OptStats
			st.JIT[sub] = col.JITStats()
			st.Kernel[sub].RuntimeFaults = col.RuntimeFaults()
		}
	}
	st.Parallelism = p.Parallelism()
	return st
}

// SetAutopilotStats publishes the attached controller's self-report so
// Stats snapshots carry it alongside the pipeline counters. Called by the
// autopilot after every epoch tick.
func (p *Processor) SetAutopilotStats(st AutopilotStats) {
	p.mu.Lock()
	p.autopilot = st
	p.mu.Unlock()
}

// Reset clears all pipeline statistics and the demand baselines (between
// experiment trials). The Collector ring buffers are reset too: a trial
// must not start with the previous trial's pending
// samples, and — just as important — the first post-reset poll must not
// compute its demand or feedback deltas from a previous trial's cumulative
// counters. Batches parked for sink redelivery are discarded.
func (p *Processor) Reset() {
	p.pollMu.Lock()
	defer p.pollMu.Unlock()
	for _, sub := range AllSubsystems {
		if col := p.ts.CollectorFor(sub); col != nil {
			col.Ring.Reset()
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.kernelStats = [NumSubsystems]SubsystemStats{}
	p.userQueue = nil
	p.userStats = SubsystemStats{}
	p.lastRing = [NumSubsystems]bpf.RingStats{}
	p.lastUserSubmitted, p.lastUserDropped = 0, 0
	p.retryQueue = nil
	p.sinkRetries, p.sinkRetryDrops = 0, 0
	p.processed = 0
	p.polls = 0
	p.lastGlobalBudget, p.lastEffectiveBudget = 0, 0
	p.feedbackActions = 0
	p.batchHist = [BatchHistBuckets]int64{}
}
