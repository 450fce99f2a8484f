package tscout

import (
	"errors"
	"slices"

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

// userDrainPenalty is how many times more expensive one sample is to
// retrieve in the user modes than in Kernel-Continuous: the paper's
// user-space retrieval path is substantially slower per sample than the
// in-kernel one, which is why user-mode data generation plateaus at low
// sampling rates in Fig. 6. Every mode's samples ride the same per-CPU
// rings; Drain charges budget tokens and drain-thread time at this multiple
// (drainPenalty), and it is the only difference between the modes' samples
// once they are submitted.
const userDrainPenalty = 3

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
func metricsSane(m *Metrics) bool {
	vals := m.Values()
	for i, v := range &vals {
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

// ringOwner is the drain-thread affinity map: global ring index g is owned
// by exactly one of the parallelism modeled drain threads, which waterfills
// its budget over the ring and is charged the virtual time its samples cost.
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
// syscalls) across a whole drain. Each batch is offered once: a WriteBatch
// error loses the whole batch, charged to SinkErrors point by point, and it
// is never offered again, so the sink sees the points in drain order. The
// sink is the only place a point lives after Drain: with a nil sink points
// are counted (Stats().Processed) and discarded.
//
// A Sink may call back into the Processor (stats, submissions, a drain)
// from WriteBatch.
type Sink interface {
	// WriteBatch delivers one drained batch. It borrows pts, and every
	// point's Features vector, until it returns: the Processor's next drain
	// decodes over both, so a sink copies what it keeps — the points, or
	// the values in them, as the archive Writer appends each point's values
	// to its column blocks. A drain WriteBatch itself starts decodes into
	// slices of its own, and leaves pts as it was.
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
// The Processor consults StickyErr before each delivery; once it is non-nil
// every later batch is lost without a WriteBatch call, since the sink is
// guaranteed never to accept it.
type StickySink interface {
	Sink
	// StickyErr reports the permanent write error, or nil while healthy.
	StickyErr() error
}

// SplitWeightFunc apportions a fused sample's metrics across its OUs
// (paper §5.2/§6: "we preprocess the DBMS's online models to break
// multiple OUs per operation into per-OU data points using offline
// models"). It returns a relative weight for one OU's share; weights are
// normalized over the sample. The default splits equally. features is the
// part's wire vector, borrowed for the call: the drain reuses its places.
type SplitWeightFunc func(ou OUID, features []float64) float64

// Processor is TScout's user-space component (paper §3.2): a budgeted,
// self-observable drain pipeline. Its drain threads exist in virtual time:
// ringOwner gives each modeled thread a disjoint set of the per-CPU rings,
// the threads share one global token budget per drain period (a single
// thread-period times the configured parallelism), and each ring's samples
// are charged to the thread that owns it. On the host a drain is one pass,
// ring by ring in global ring order: each ring lends its samples (a
// bpf.Batch), and each sample is read once, in place, into a point of the
// drain's point slice, its features into a vector cut from the drain's
// feature slice. The finished points leave for the Sink — their only store —
// as one batch, offered once and borrowed until WriteBatch returns. So a
// drain allocates nothing at steady state: everything it uses is scratch
// kept here between drains, bounded by the ring count, by one ring's
// capacity or, for the point and feature slices the sink borrows, by
// maxKeptPoints points.
type Processor struct {
	ts   *TScout
	sink Sink

	group               *kernel.TaskGroup
	kernelStats         [NumSubsystems]SubsystemStats
	lastRing            [NumSubsystems]bpf.RingStats
	splitter            SplitWeightFunc
	processed           int64
	polls               int64
	lastGlobalBudget    int
	lastEffectiveBudget int
	feedbackActions     int64
	batchHist           [BatchHistBuckets]int64
	autopilot           AutopilotStats

	// Drain's scratch: what a drain needs only while it runs, truncated and
	// refilled by the next one. Each is bounded by the ring count, by one
	// ring batch or by maxKeptPoints, never by a drain's size, so an
	// unbudgeted sweep leaves nothing larger behind than a budgeted poll:
	// the per-CPU ring snapshots, the demand and allocation tables, one drain
	// thread's demands and their waterfill (ring count), the charge table
	// (drain threads), the ring batch being decoded (one lent slice a
	// sample) and a fused sample's parts.
	cpuNow         [NumSubsystems][]bpf.RingStats
	demands, alloc []int
	dem, share     []int
	charged        [][NumSubsystems]int64
	batch          bpf.Batch
	parts          []fusedPart
	// pts and features are the point slice the next drain decodes into and
	// the slice its feature vectors are cut from. The sink borrows both, so
	// a drain takes them out while the sink has them — a drain the sink
	// starts from WriteBatch gets slices of its own — and puts them back
	// afterwards if the points number at most maxKeptPoints.
	pts      []TrainingPoint
	features []float64
}

// maxKeptPoints bounds the point slice a drain keeps for the next one, about
// 370 KB, and its feature slice, that many vectors of the widest registered
// OU. A drain larger than a poll — an unbudgeted sweep of full rings — drops
// both instead, so the Processor keeps a poll's worth, not a sweep's: the
// ledger's budgeted polls drain at most a few hundred points, and its final
// sweeps over 8 000.
const maxKeptPoints = 2048

// cutVector cuts a zeroed vector of n places from the end of feats, with its
// capacity clipped so that an append never reaches the next vector. A drain
// reserves room for a vector of the widest OU a sample, so only a fused
// sample's extra parts can outgrow feats; then feats moves to a larger
// array, and the vectors cut before stay in the old one.
func cutVector(feats []float64, n int) ([]float64, []float64) {
	lo := len(feats)
	feats = slices.Grow(feats, n)[:lo+n]
	f := feats[lo : lo+n : lo+n]
	clear(f)
	return feats, f
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

// Parallelism returns the number of modeled drain threads (New clamps
// the configured number to at least 1).
func (p *Processor) Parallelism() int { return p.ts.cfg.ProcessorParallelism }

// drainPenalty is how many budget tokens, and how many samples' worth of
// drain-thread time, retrieving one sample costs in this deployment's mode.
func (p *Processor) drainPenalty() int {
	if p.ts.cfg.Mode == KernelContinuous {
		return 1
	}
	return userDrainPenalty
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
	// by every CPU ring, and degraded under overload.
	Budget int
}

// Drain runs one drain period over the per-CPU rings and hands what it
// produced to the sink. Each modeled drain thread owns a disjoint set of
// CPU rings (ring affinity: global ring index mod parallelism) and
// waterfills its slice of the effective budget over them. The host does every thread's
// work in one pass, in global ring order, and charges each ring's samples to
// the thread that owns it: parallelism is a virtual-time model (see the sim
// package doc).
// A sample costs drainPenalty tokens and as many samples' worth of thread
// time. Sustained oversubmission overwrites ring entries, and the pipeline's
// efficiency degrades under overload — the §6.2 dynamics behind Fig. 6's
// peak-then-decline curve.
func (p *Processor) Drain(opts DrainOptions) {
	group := p.taskGroup()
	parallelism := group.Size()
	penalty := p.drainPenalty()
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
		demand += ds * int64(penalty)
	}

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

	// Token demand per ring: penalty tokens per pending sample. Each thread
	// waterfills its own slice of the effective budget over the rings it
	// owns, so no ring can exceed one thread's period capacity and no two
	// threads compete for the same tokens.
	demands := zeroed(p.demands, numRings)
	p.demands = demands
	for _, sub := range AllSubsystems {
		for cpu, rs := range p.cpuNow[sub] {
			demands[globalRingIndex(cpu, sub, numCPUs)] = rs.Pending * penalty
		}
	}

	alloc := zeroed(p.alloc, numRings)
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

	// A ring's tokens buy 1/penalty samples each; partial-token rounding
	// never starves a ring that was granted any.
	for g, a := range alloc {
		if a > 0 {
			alloc[g] = max(a/penalty, 1)
		}
	}

	// One pass in global ring order: each ring lends its batch to p.batch,
	// which is decoded onto the end of pts, the drain's output, sized for a
	// point a sample (a fused sample grows it), and of feats, sized for a
	// vector of the widest OU a sample; both are kept for the next drain.
	// The order the sink sees is therefore a pure function of the drained
	// data: the same seed yields a bit-identical sink stream at any drain
	// parallelism. charged counts each (thread, subsystem)'s samples for the
	// virtual-time charge below.
	size := 0
	for _, a := range alloc {
		size += a
	}
	pts, feats := p.pts[:0], p.features[:0]
	p.pts, p.features = nil, nil
	if cap(pts) < size {
		pts = make([]TrainingPoint, 0, size)
	}
	if need := size * p.ts.widest; feats == nil || cap(feats) < need {
		feats = make([]float64, 0, max(need, 1)) // never nil: a vector of no features is empty, not nil
	}
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
		pts, feats = p.decodeBatch(pts, feats, &p.batch, &counts[sub])
		points[sub] += int64(len(pts) - first)
	}
	p.batch.Reset()

	// Charge virtual time in subsystem order on each ring's owning thread:
	// the charge sequence the pre-affinity serial drain issued, so identical
	// seeded runs consume the kernel's noise streams identically.
	for _, sub := range AllSubsystems {
		for t := range charged {
			if n := charged[t][sub]; n > 0 {
				group.Task(t).ChargeUserNS(n * processSampleNS * int64(penalty))
			}
		}
	}

	// The period's per-subsystem counters. SinkErrors is charged at
	// delivery, and Stats reads Submitted and Dropped from the live ring
	// counters of every subsystem with a Collector — the only subsystems
	// this loop visits — so neither is accumulated here.
	for _, sub := range AllSubsystems {
		if cols[sub] == nil {
			continue
		}
		ks := &p.kernelStats[sub]
		ks.Points += points[sub]
		var drained int64
		for t := range charged {
			drained += charged[t][sub]
		}
		c := &counts[sub]
		ks.Drained += drained
		ks.DecodeErrors += c.decodeErrs
		ks.CorruptDiscards += c.corrupt
		ks.PaddedFeatures += c.padded
		ks.TruncatedFeatures += c.truncated
	}
	for b, c := range hist {
		p.batchHist[b] += c
	}
	p.processed += int64(len(pts))

	if !p.ts.cfg.DisableProcessorFeedback {
		p.applyFeedback(deltaSub, deltaDrop)
	}
	p.deliver(pts)
	if cap(pts) <= maxKeptPoints {
		p.pts, p.features = pts[:0], feats[:0]
	}
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

// deliver hands the drain's batch to the sink once. The batch is lost if the
// sink rejects it, or if the sink has already reported a permanent error
// (StickySink), in which case it is not called: each lost point is charged
// to its subsystem's SinkErrors. The sink borrows the points and their
// vectors until WriteBatch returns; the next drain decodes over them.
// A sink may call back into the Processor — submit samples or read stats —
// from WriteBatch.
func (p *Processor) deliver(pts []TrainingPoint) {
	if p.sink == nil || len(pts) == 0 {
		return
	}
	if p.sinkStickyErr() == nil && p.sink.WriteBatch(pts) == nil {
		return
	}
	for _, tp := range pts {
		p.kernelStats[tp.Subsystem].SinkErrors++
	}
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
// the end of pts, in sample order, cuts the points' feature vectors from the
// end of feats, and counts in c what it discarded and repaired. Each sample
// is read once, in place, into the point at the end of pts: the structural
// checks and the metrics (decodePoint), then metricsSane — before the OU
// lookup and before any fused expansion, since scaleMetrics would smear a
// wrapped counter across every part — then the OU, one index into the
// registry. A discarded sample leaves pts and feats as they were.
//
// Feature vectors are normalized to the OU's declared width, so a point's
// Features and FeatureNames always have equal length (a short vector would
// misalign every feature after it in training). Nothing decoded aliases b,
// whose samples the rings lend only until their next submission.
func (p *Processor) decodeBatch(pts []TrainingPoint, feats []float64, b *bpf.Batch, c *decodeCounts) ([]TrainingPoint, []float64) {
	for i := 0; i < b.Len(); i++ {
		buf := b.Sample(i)
		n, nf := len(pts), len(feats)
		pts = slices.Grow(pts, 1)[:n+1]
		tp := &pts[n]
		ou, err := decodePoint(tp, buf)
		switch {
		case err != nil:
		case !metricsSane(&tp.Metrics):
			err = errCorruptMetrics
		case ou == FusedOUID:
			pts, feats, err = p.expandFused(pts, feats, buf, c)
		default:
			def := p.ts.ou(ou)
			if def == nil {
				err = errUnregisteredOU
				break
			}
			var f []float64
			feats, f = cutVector(feats, len(def.Features))
			for j, keep := 0, c.fit(featureCount(buf), len(f)); j < keep; j++ {
				f[j] = float64(featureWord(buf, j))
			}
			tp.OU, tp.OUName, tp.Subsystem = def.ID, def.Name, def.Subsystem
			tp.Features, tp.FeatureNames = f, def.Features
		}
		if err != nil {
			pts, feats = pts[:n], feats[:nf]
			if errors.Is(err, errCorruptMetrics) {
				c.corrupt++
			} else {
				c.decodeErrs++
			}
		}
	}
	return pts, feats
}

// Errors a fused sample's layout or an unregistered OU discards it with.
var (
	errUnregisteredOU = errors.New("tscout: sample for an unregistered OU")
	errFusedLayout    = errors.New("tscout: fused feature words do not parse")
)

// fusedPart is one OU's slice of a fused sample, resolved: where its
// feature words start in the sample's feature area and how many there are,
// its OU's definition and its weight.
type fusedPart struct {
	ou     OUID
	off, n int
	def    *OUDef
	weight float64
}

// fusedParts parses the fused feature-word layout of a sample decodePoint
// accepted ([k, then per OU: ouID, nFeats, feats...]) into parts, in place:
// every count comes off the wire and is checked against the words there are.
func fusedParts(parts []fusedPart, buf []byte) ([]fusedPart, error) {
	nw := featureCount(buf)
	if nw == 0 {
		return parts, errFusedLayout
	}
	k := featureWord(buf, 0)
	if k > uint64((nw-1)/2) {
		return parts, errFusedLayout
	}
	for i := 1; k > 0; k-- {
		if i+2 > nw {
			return parts, errFusedLayout
		}
		ou, cnt := OUID(featureWord(buf, i)), featureWord(buf, i+1)
		i += 2
		if cnt > uint64(nw-i) {
			return parts, errFusedLayout
		}
		parts = append(parts, fusedPart{ou: ou, off: i, n: int(cnt)})
		i += int(cnt)
	}
	return parts, nil
}

// expandFused replaces the fused sample decoded into the last point of pts
// with one point per OU of the sample, its metrics apportioned across them
// by the splitter's weights. Every part's OU is resolved before anything is
// counted or kept, so a sample discarded for an unregistered OU counts no
// repairs. The parts are Processor scratch, and a splitter's vector is cut
// from feats and given back before the parts' vectors are cut.
func (p *Processor) expandFused(pts []TrainingPoint, feats []float64, buf []byte, c *decodeCounts) ([]TrainingPoint, []float64, error) {
	n := len(pts) - 1
	pid, m := pts[n].PID, pts[n].Metrics
	parts, err := fusedParts(p.parts[:0], buf)
	p.parts = parts
	if err != nil {
		return pts, feats, err
	}
	var total float64
	for i := range parts {
		part := &parts[i]
		if part.def = p.ts.ou(part.ou); part.def == nil {
			return pts, feats, errUnregisteredOU
		}
		part.weight = 1
		if p.splitter != nil {
			lo := len(feats)
			var f []float64
			feats, f = cutVector(feats, part.n)
			part.fill(f, buf)
			if part.weight = p.splitter(part.ou, f); part.weight <= 0 {
				part.weight = 1e-9
			}
			feats = feats[:lo]
		}
		total += part.weight
	}
	pts = pts[:n]
	for i := range parts {
		part := &parts[i]
		def := part.def
		c.fit(part.n, len(def.Features))
		var f []float64
		feats, f = cutVector(feats, len(def.Features))
		part.fill(f, buf)
		pts = append(pts, TrainingPoint{
			OU:           def.ID,
			OUName:       def.Name,
			Subsystem:    def.Subsystem,
			PID:          pid,
			Features:     f,
			FeatureNames: def.Features,
			Metrics:      scaleMetrics(m, part.weight/total),
		})
	}
	return pts, feats, nil
}

// fill converts the part's feature words into f: words beyond its width are
// dropped, places beyond the words keep their zero.
func (part *fusedPart) fill(f []float64, buf []byte) {
	for j := 0; j < part.n && j < len(f); j++ {
		f[j] = float64(featureWord(buf, part.off+j))
	}
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
// long the run has been going. A lowered rate keeps a subset of the bits
// the field had (Sampler), so feedback only thins what is sampled.
func (p *Processor) applyFeedback(deltaSub, deltaDrop [NumSubsystems]int64) {
	for _, sub := range AllSubsystems {
		if deltaSub[sub] == 0 || deltaDrop[sub] == 0 {
			continue
		}
		if float64(deltaDrop[sub]) > feedbackDropThreshold*float64(deltaSub[sub]) {
			rate := p.ts.sampler.Rate(sub)
			if rate > 1 {
				p.ts.sampler.SetRate(sub, rate*8/10)
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
	st.Polls = p.polls
	st.GlobalBudget = p.lastGlobalBudget
	st.EffectiveBudget = p.lastEffectiveBudget
	st.FeedbackActions = p.feedbackActions
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
		st.SinkRetryDrops += st.Kernel[sub].SinkErrors
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
// counters.
func (p *Processor) Reset() {
	for _, sub := range AllSubsystems {
		if col := p.ts.CollectorFor(sub); col != nil {
			col.Ring.Reset()
		}
	}
	p.kernelStats = [NumSubsystems]SubsystemStats{}
	p.lastRing = [NumSubsystems]bpf.RingStats{}
	p.processed = 0
	p.polls = 0
	p.lastGlobalBudget, p.lastEffectiveBudget = 0, 0
	p.feedbackActions = 0
	p.batchHist = [BatchHistBuckets]int64{}
}
