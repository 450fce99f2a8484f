package tscout

import (
	"errors"
	"fmt"

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
// AllocBytes, the user-level memory probe's figure, is not checked.
func metricsSane(m Metrics) bool {
	for i, v := range m.Values() {
		switch {
		case i == mwAlloc: // not checked
		case MetricIsCounter(i):
			if uint64(v) >= corruptCounterLimit {
				return false
			}
		case v < 0:
			return false
		}
	}
	return true
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
// user pseudo-ring index) is owned by exactly one of the parallelism modeled
// drain threads, which waterfills its budget over the ring and is charged
// the virtual time its samples cost.
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
// call, so a sink amortizes its per-write overhead (row encoding,
// syscalls) across a whole drain. A WriteBatch error counts
// against every point in the batch — the sink rejected the delivery as a
// unit. The sink is the only place a point lives after Drain: with a nil
// sink points are counted (Stats().Processed) and discarded.
//
// A Sink may call back into the Processor (stats, submissions) from
// WriteBatch.
type Sink interface {
	// WriteBatch delivers one drained batch.
	WriteBatch(pts []TrainingPoint) error
	// Flush forces buffered output to the underlying target and reports
	// any deferred write error.
	Flush() error
	// Rows reports the number of points written so far.
	Rows() int64
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
// self-observable drain pipeline. Its drain threads exist in virtual time:
// ringOwner gives each modeled thread a disjoint set of the per-CPU rings,
// the threads share one global token budget per drain period (a single
// thread-period times the configured parallelism), and each ring's samples
// are charged to the thread that owns it. On the host a drain is one pass,
// ring by ring in global ring order, and its finished points leave for the
// Sink — their only store — as one batch. A drain allocates only what it
// hands on, the point slice and the feature chunks its vectors are cut
// from; everything else it uses is scratch kept here between drains,
// bounded by the ring count or by one ring's capacity.
type Processor struct {
	ts   *TScout
	sink Sink

	group               *kernel.TaskGroup
	kernelStats         [NumSubsystems]SubsystemStats
	userQueue           [][]byte
	userStats           SubsystemStats
	lastRing            [NumSubsystems]bpf.RingStats
	lastUserSubmitted   int64
	splitter            SplitWeightFunc
	retryQueue          []retryBatch
	sinkRetries         int64
	sinkRetryDrops      int64
	processed           int64
	polls               int64
	lastGlobalBudget    int
	lastEffectiveBudget int
	feedbackActions     int64
	batchHist           [BatchHistBuckets]int64
	autopilot           AutopilotStats

	// Drain's scratch: what a drain needs only while it runs, truncated and
	// refilled by the next one and never handed on. Each is bounded by the
	// ring count or by one ring batch, never by a drain's size, so an
	// unbudgeted sweep leaves nothing larger behind than a budgeted poll:
	// the per-CPU ring snapshots, the demand and allocation tables, one drain
	// thread's demands and their waterfill (ring count), the charge table
	// (drain threads), the ring batch being decoded (a contiguous buffer that
	// grows to the largest ring batch) and deliver's due list (the retry
	// queue and the fresh batch, cleared after delivery).
	cpuNow         [NumSubsystems][]bpf.RingStats
	demands, alloc []int
	dem, share     []int
	charged        [][NumSubsystems]int64
	batch          bpf.Batch
	due            []retryBatch
	// features is the rest of the chunk feature vectors are cut from
	// (cutFeatures). What is cut from it is handed on with its point, so
	// unlike the scratch it is never rewound: a full chunk is dropped for a
	// fresh one and stays with the vectors cut from it.
	features []float64
}

// featureChunk is the length of the chunks feature vectors are cut from,
// 32 KB: a drain of a few thousand points cuts one. A vector longer than a
// quarter of a chunk gets its own allocation, so a chunk is never left
// mostly unused.
const featureChunk = 4096

// cutFeatures returns a zeroed feature vector of n places from the front of
// the current chunk, with its capacity clipped so that an append never
// reaches the next vector. A chunk too short for n is replaced with a fresh
// one; the old one stays with whatever was cut from it. The first call makes
// a chunk even for n = 0, so that a vector is never nil.
func (p *Processor) cutFeatures(n int) []float64 {
	if n > featureChunk/4 {
		return make([]float64, n)
	}
	if p.features == nil || len(p.features) < n {
		p.features = make([]float64, featureChunk)
	}
	f := p.features[:n:n]
	p.features = p.features[n:]
	return f
}

// zeroed returns s resized to n zeroed elements, reusing its array when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// NewProcessor creates the Processor for a deployment.
func NewProcessor(ts *TScout, sink Sink) *Processor {
	return &Processor{ts: ts, sink: sink}
}

// SetSplitter installs the fused-sample metric splitter.
func (p *Processor) SetSplitter(f SplitWeightFunc) { p.splitter = f }

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
	p.userStats.Submitted++
	if len(p.userQueue) >= userQueueCapacity {
		p.userStats.Dropped++
		return
	}
	p.userQueue = append(p.userQueue, buf)
}

func (p *Processor) taskGroup() *kernel.TaskGroup {
	if p.group == nil {
		p.group = p.ts.kernel.NewTaskGroup("tscout-processor", p.Parallelism())
		// Spread the drain threads across the simulated CPUs explicitly:
		// thread i runs on CPU i mod NumCPUs, a placement that is a
		// function of the parallelism alone (pid-recycling history would
		// otherwise pick the CPUs). On distinct CPUs the threads draw their
		// drain-time charges from disjoint noise streams.
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

// Drain runs one drain period over the per-CPU rings and hands what it
// produced to the sink. Each modeled drain thread owns a disjoint set of
// CPU rings (ring affinity: global ring index mod parallelism) and
// waterfills its slice of the effective budget over them. The host does every thread's
// work in one pass, in global ring order, and charges each ring's samples to
// the thread that owns it: parallelism is a virtual-time model (see the sim
// package doc).
// Sustained oversubmission overwrites ring entries (kernel path) or
// overflows the user queue, and the pipeline's efficiency degrades under
// overload — the §6.2 dynamics behind Fig. 6's peak-then-decline curve.
func (p *Processor) Drain(opts DrainOptions) {
	group := p.taskGroup()
	parallelism := group.Size()
	// The drain threads wake together at the period tick.
	group.Barrier()
	for i := 0; i < parallelism; i++ {
		group.Task(i).ChargeUserNS(pollBaseNS)
	}

	// Snapshots: per-subsystem aggregates for the period deltas and per-CPU
	// ring stats for demand.
	var ringNow [NumSubsystems]bpf.RingStats
	cols := [NumSubsystems]*Collector{}
	numCPUs := 1
	for _, sub := range AllSubsystems {
		p.cpuNow[sub] = p.cpuNow[sub][:0]
		if col := p.ts.CollectorFor(sub); col != nil {
			cols[sub] = col
			// Reap in-flight OU entries whose task generation died mid-OU
			// before taking the period's snapshots: a kill between BEGIN and
			// FEATURES must land in the StaleReaped orphan bucket this
			// period, not linger as a phantom in-flight entry a recycled pid
			// could never legally complete.
			col.ReapStale(p.ts.kernel.GenAlive)
			ringNow[sub] = col.Ring.Stats()
			p.cpuNow[sub] = col.Ring.AppendCPUStats(p.cpuNow[sub])
			if n := col.Ring.NumCPUs(); n > numCPUs {
				numCPUs = n
			}
		}
	}
	numRings := numCPUs * int(NumSubsystems)
	userIdx := numRings // user queue is the pseudo-ring after the last CPU ring

	// Per-period deltas, demand, and the degraded effective budget.
	var deltaSub, deltaDrop [NumSubsystems]int64
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

	// Token demand per ring: one token per pending kernel sample,
	// userDrainPenalty tokens per pending user sample. Each thread
	// waterfills its own slice of the effective budget over the rings it
	// owns, so no ring can exceed one thread's period capacity and no two
	// threads compete for the same tokens.
	demands := zeroed(p.demands, numRings+1)
	p.demands = demands
	for _, sub := range AllSubsystems {
		for cpu, rs := range p.cpuNow[sub] {
			demands[globalRingIndex(cpu, sub, numCPUs)] = rs.Pending
		}
	}
	demands[userIdx] = userPending * userDrainPenalty

	alloc := zeroed(p.alloc, numRings+1)
	p.alloc = alloc
	if opts.Budget > 0 {
		for t := 0; t < parallelism; t++ {
			dem := p.dem[:0]
			for g, d := range demands {
				if ringOwner(g, parallelism) == t {
					dem = append(dem, d)
				}
			}
			tokens := effective / parallelism
			if t < effective%parallelism {
				tokens++
			}
			share := zeroed(p.share, len(dem))
			waterfill(share, dem, tokens)
			p.dem, p.share = dem, share
			for g := range alloc {
				if ringOwner(g, parallelism) == t {
					alloc[g], share = share[0], share[1:]
				}
			}
		}
	} else {
		copy(alloc, demands) // unlimited: drain everything
	}

	// One pass in global ring order, then the user pseudo-ring: each ring
	// batch is drained into p.batch and decoded onto the end of pts, the
	// drain's output, sized for a point a sample (a fused sample grows it).
	// The order the sink sees is therefore a pure function of the drained
	// data: the same seed yields a bit-identical sink stream at any drain
	// parallelism. charged counts each (thread, subsystem)'s kernel samples
	// for the virtual-time charge below.
	userSamples := 0
	if alloc[userIdx] > 0 {
		// Tokens buy 1/userDrainPenalty samples each; partial-token
		// rounding never starves the queue.
		userSamples = max(alloc[userIdx]/userDrainPenalty, 1)
	}
	size := userSamples
	for _, a := range alloc[:numRings] {
		size += a
	}
	pts := make([]TrainingPoint, 0, size)
	charged := zeroed(p.charged, parallelism)
	p.charged = charged
	var counts [NumSubsystems]decodeCounts
	var points [NumSubsystems]int64
	var hist [BatchHistBuckets]int64
	for g := 0; g < numRings; g++ {
		sub := SubsystemID(g / numCPUs)
		if alloc[g] == 0 || cols[sub] == nil {
			continue
		}
		p.batch.Reset()
		n := cols[sub].Ring.DrainBatch(g%numCPUs, &p.batch, alloc[g])
		if n == 0 {
			continue
		}
		charged[ringOwner(g, parallelism)][sub] += int64(n)
		hist[histBucket(n)]++
		first := len(pts)
		pts = p.decodeBatch(pts, &p.batch, &counts[sub])
		points[sub] += int64(len(pts) - first)
	}
	var user decodeCounts
	var userDrained int64
	if userSamples > 0 {
		p.batch.Reset()
		take := min(userSamples, len(p.userQueue))
		for _, buf := range p.userQueue[:take] {
			p.batch.Append(buf)
		}
		rest := copy(p.userQueue, p.userQueue[take:])
		clear(p.userQueue[rest:])
		p.userQueue = p.userQueue[:rest]
		userDrained = int64(take)
		first := len(pts)
		pts = p.decodeBatch(pts, &p.batch, &user)
		// Points count toward the subsystem they decode into, while the
		// drain/decode accounting stays on the user-queue stats.
		for _, tp := range pts[first:] {
			points[tp.Subsystem]++
		}
	}

	// Charge virtual time in subsystem order on each ring's owning thread,
	// then the user pseudo-ring's: the charge sequence the pre-affinity
	// serial drain issued, so identical seeded runs consume the kernel's
	// noise streams identically.
	for _, sub := range AllSubsystems {
		for t := range charged {
			if n := charged[t][sub]; n > 0 {
				group.Task(t).ChargeUserNS(n * processSampleNS)
			}
		}
	}
	if userDrained > 0 {
		group.Task(ringOwner(userIdx, parallelism)).ChargeUserNS(userDrained * processSampleNS * userDrainPenalty)
	}

	// Apart from SinkErrors (charged at delivery) this is the only place the
	// per-subsystem and user-queue counters are written.
	for _, sub := range AllSubsystems {
		ks := &p.kernelStats[sub]
		// User-probe points land in the subsystem they decode into, whether
		// or not that subsystem has a kernel Collector.
		ks.Points += points[sub]
		if cols[sub] == nil {
			continue
		}
		var drained int64
		for t := range charged {
			drained += charged[t][sub]
		}
		c := &counts[sub]
		ks.Submitted += deltaSub[sub]
		ks.Dropped += deltaDrop[sub]
		ks.Drained += drained
		ks.DecodeErrors += c.decodeErrs
		ks.CorruptDiscards += c.corrupt
		ks.PaddedFeatures += c.padded
		ks.TruncatedFeatures += c.truncated
	}
	p.userStats.Drained += userDrained
	p.userStats.DecodeErrors += user.decodeErrs
	p.userStats.CorruptDiscards += user.corrupt
	p.userStats.PaddedFeatures += user.padded
	p.userStats.TruncatedFeatures += user.truncated
	for b, c := range hist {
		p.batchHist[b] += c
	}
	p.processed += int64(len(pts))

	if !p.ts.cfg.DisableProcessorFeedback {
		p.applyFeedback(deltaSub, deltaDrop)
	}
	p.deliver(pts)
}

// waterfill distributes tokens across shards in proportion to demand,
// redistributing capacity unclaimed by underloaded shards, so the sum of
// allocations never exceeds tokens and a single hot shard cannot starve
// the others. It writes shard i's allocation to alloc[i], whatever alloc
// held before. A shard is open while its allocation is short of its demand.
func waterfill(alloc, demands []int, tokens int) {
	clear(alloc)
	for remaining := tokens; remaining > 0; {
		open, need := 0, 0
		for i, d := range demands {
			if alloc[i] < d {
				open++
				need += d - alloc[i]
			}
		}
		if open == 0 {
			return
		}
		// Every open shard takes what it needs when the tokens cover every
		// need, one token in shard order when there are fewer tokens than
		// open shards — either ends the fill — and otherwise an equal share.
		share := remaining / open
		last := need <= remaining || share == 0
		if need <= remaining {
			share = need
		}
		share = max(share, 1)
		for i, d := range demands {
			if alloc[i] < d && remaining > 0 {
				give := min(share, d-alloc[i])
				alloc[i] += give
				remaining -= give
			}
		}
		if last {
			return
		}
	}
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
// then the drain's fresh batch. A sink may call back into the Processor —
// submit samples or read stats — from WriteBatch.
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
	due := p.due[:0]
	keep := p.retryQueue[:0]
	for _, rb := range p.retryQueue {
		if rb.notBefore <= p.polls {
			due = append(due, rb)
		} else {
			keep = append(keep, rb)
		}
	}
	p.retryQueue = keep
	if len(fresh) > 0 {
		due = append(due, retryBatch{pts: fresh})
	}

	dead := p.sinkStickyErr() != nil
	for _, rb := range due {
		if !dead {
			if rb.attempts > 0 {
				p.sinkRetries++
			}
			if p.sink.WriteBatch(rb.pts) == nil {
				continue
			}
			dead = p.sinkStickyErr() != nil
		}
		if rb.attempts == 0 {
			for _, tp := range rb.pts {
				p.kernelStats[tp.Subsystem].SinkErrors++
			}
		}
		if attempts := rb.attempts + 1; dead || attempts > maxSinkRetries || p.pendingRetry()+len(rb.pts) > maxRetryQueuePoints {
			p.sinkRetryDrops += int64(len(rb.pts))
		} else {
			p.retryQueue = append(p.retryQueue, retryBatch{
				pts:      rb.pts,
				attempts: attempts,
				// 1<<attempts polls of backoff: 2, 4, 8 periods for attempts 1-3.
				notBefore: p.polls + int64(1)<<attempts,
			})
		}
	}
	clear(due) // the scratch must not pin delivered points
	p.due = due[:0]
	if dead {
		p.sinkRetryDrops += int64(p.pendingRetry())
		p.retryQueue = nil
	}
}

// pendingRetry counts the points parked in the retry queue.
func (p *Processor) pendingRetry() int {
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

// decodeCounts tallies what decoding a shard's ring batches discarded —
// corrupt samples (structurally sound, physically impossible metrics) and
// decode errors (everything else) — and the feature vectors it repaired
// (short vectors zero-padded, long vectors truncated).
type decodeCounts struct {
	corrupt, decodeErrs int64
	padded, truncated   int64
}

// fit counts the repair a vector of n wire features needs to reach an OU's
// declared width — truncated when longer, zero-padded when shorter — and
// returns how many of its words to keep.
func (c *decodeCounts) fit(n, width int) int {
	switch {
	case n > width:
		c.truncated++
		return width
	case n < width:
		c.padded++
	}
	return n
}

// decodeBatch is the one sample-decode path: it decodes one ring batch onto
// the end of pts, in sample order, and counts in c what it discarded and
// repaired. Each sample is read in place, once: the header decode's
// structural checks, then metricsSane — before the OU lookup and before any
// fused expansion, since scaleMetrics would smear a wrapped counter across
// every part — then the OU.
//
// Feature vectors are normalized to the OU's declared width, so a point's
// Features and FeatureNames always have equal length (a short vector would
// misalign every feature after it in training). A non-fused point's vector
// is cut from the Processor's feature chunk (cutFeatures). The points and
// their vectors are the sink's once delivered (an archive segment holds them
// until it seals, a rejected batch is parked for redelivery), so neither is
// ever reused. Nothing decoded aliases b, which the next ring batch
// overwrites.
func (p *Processor) decodeBatch(pts []TrainingPoint, b *bpf.Batch, c *decodeCounts) []TrainingPoint {
	for i := 0; i < b.Len(); i++ {
		buf := b.Sample(i)
		s, err := decodeHeader(buf)
		switch {
		case err != nil:
		case !metricsSane(s.Metrics):
			err = errCorruptMetrics
		case s.OU == FusedOUID:
			pts, err = p.expandFused(pts, buf, c)
		default:
			def, ok := p.ts.OU(s.OU)
			if !ok {
				err = fmt.Errorf("tscout: sample for unregistered OU %d", s.OU)
				break
			}
			f := p.cutFeatures(len(def.Features))
			for j, keep := 0, c.fit(featureCount(buf), len(f)); j < keep; j++ {
				f[j] = float64(featureWord(buf, j))
			}
			pts = append(pts, pointOf(def, s.PID, s.Metrics, f))
		}
		if errors.Is(err, errCorruptMetrics) {
			c.corrupt++
		} else if err != nil {
			c.decodeErrs++
		}
	}
	return pts
}

// expandFused appends one point per OU of a fused sample, the sample's
// metrics apportioned across them by the splitter's weights. On error pts
// comes back as it was handed in.
func (p *Processor) expandFused(pts []TrainingPoint, buf []byte, c *decodeCounts) ([]TrainingPoint, error) {
	s, err := DecodeSample(buf)
	if err != nil {
		return pts, err
	}
	parts, err := DecodeFusedFeatures(s.Features)
	if err != nil {
		return pts, err
	}
	split := p.splitter
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
		c.fit(len(part.Features), len(def.Features))
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

// scaleMetrics multiplies every metric by f through float64, keeping each
// one's signedness: a fused sample's share for one of its parts.
func scaleMetrics(m Metrics, f float64) Metrics {
	v := m.Values()
	for i, x := range v {
		if MetricIsCounter(i) {
			v[i] = int64(uint64(float64(uint64(x)) * f))
		} else {
			v[i] = int64(float64(x) * f)
		}
	}
	return MetricsOf(&v)
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
				// it runs once per drain in AllSubsystems order at
				// deterministic virtual times, and the golden
				// fingerprints pin its historical draw schedule.
				p.ts.sampler.setRateShared(sub, rate*8/10)
				p.feedbackActions++
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
	st.Kernel = p.kernelStats
	st.User = p.userStats
	st.User.WrapClamps = p.ts.userWrapClamps()
	st.Polls = p.polls
	st.GlobalBudget = p.lastGlobalBudget
	st.EffectiveBudget = p.lastEffectiveBudget
	st.FeedbackActions = p.feedbackActions
	st.SinkRetries = p.sinkRetries
	st.SinkRetryDrops = p.sinkRetryDrops
	st.PendingRetry = p.pendingRetry()
	st.Processed = p.processed
	st.BatchSizeHist = p.batchHist
	st.Autopilot = p.autopilot
	for _, sub := range AllSubsystems {
		if col := p.ts.CollectorFor(sub); col != nil {
			rs := col.Ring.Stats()
			st.Kernel[sub].Submitted = rs.Submitted
			st.Kernel[sub].Dropped = rs.Dropped
			st.Kernel[sub].Orphans = col.Orphans()
			st.Rings[sub] = col.Ring.AppendCPUStats(nil)
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
func (p *Processor) SetAutopilotStats(st AutopilotStats) { p.autopilot = st }

// Reset clears all pipeline statistics and the demand baselines (between
// experiment trials). The Collector ring buffers are reset too: a trial
// must not start with the previous trial's pending
// samples, and — just as important — the first post-reset poll must not
// compute its demand or feedback deltas from a previous trial's cumulative
// counters. Batches parked for sink redelivery are discarded.
func (p *Processor) Reset() {
	for _, sub := range AllSubsystems {
		if col := p.ts.CollectorFor(sub); col != nil {
			col.Ring.Reset()
		}
	}
	p.kernelStats = [NumSubsystems]SubsystemStats{}
	p.userQueue = nil
	p.userStats = SubsystemStats{}
	p.lastRing = [NumSubsystems]bpf.RingStats{}
	p.lastUserSubmitted = 0
	p.retryQueue = nil
	p.sinkRetries, p.sinkRetryDrops = 0, 0
	p.processed = 0
	p.polls = 0
	p.lastGlobalBudget, p.lastEffectiveBudget = 0, 0
	p.feedbackActions = 0
	p.batchHist = [BatchHistBuckets]int64{}
}
