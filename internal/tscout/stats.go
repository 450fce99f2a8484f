package tscout

import "tscout/internal/bpf"

// SubsystemStats is one subsystem's slice of the Processor's self-observed
// pipeline counters, counted since deployment (or the last Reset). A
// period's count is the difference of two snapshots.
type SubsystemStats struct {
	// Submitted counts samples offered to this shard's channel (ring
	// buffer submissions for kernel shards, queue submissions for the
	// user shard).
	Submitted int64
	// Drained counts samples the Processor pulled out of the channel.
	Drained int64
	// Dropped counts samples lost to ring overwrite / queue overflow.
	Dropped int64
	// DecodeErrors counts drained samples that failed to decode.
	DecodeErrors int64
	// CorruptDiscards counts samples that decoded but carried physically
	// impossible metrics (negative elapsed/IO deltas, counter deltas in the
	// unsigned-wraparound range) and were discarded rather than emitted —
	// the last line of defense against mid-OU corruption reaching a model.
	CorruptDiscards int64
	// WrapClamps counts counter deltas clamped to zero because the end
	// reading was below the begin reading (user-mode probes; kernel-mode
	// wraps surface as CorruptDiscards instead).
	WrapClamps int64
	// SinkErrors counts training points the sink rejected.
	SinkErrors int64
	// PaddedFeatures counts samples that arrived with fewer feature words
	// than the OU declares (vectors are zero-padded to the declared
	// width so Features/FeatureNames never diverge).
	PaddedFeatures int64
	// TruncatedFeatures counts samples that arrived with more feature
	// words than the OU declares.
	TruncatedFeatures int64
	// Points counts training points produced for this subsystem (fused
	// samples expand to several points).
	Points int64
	// RuntimeFaults counts marker-context program executions that returned
	// a runtime error (kernel shards only). The verifier proves these
	// impossible for generated Collectors, so any nonzero value is a
	// verifier or JIT bug — previously Attach silently swallowed them.
	RuntimeFaults int64

	// Orphans classifies OU invocations that entered the Collector but
	// never completed as a sample (kernel shards only; see OrphanCounts).
	Orphans OrphanCounts
}

// ProcessorStats is a snapshot of the drain pipeline's own health: the
// trace collector observing itself, so operators (and the experiment
// harnesses) can tell a quiet system from a saturated one without
// instrumenting the instrumentation by hand.
type ProcessorStats struct {
	// Polls counts drain cycles since deployment or Reset.
	Polls int64
	// Parallelism is the number of modeled drain threads.
	Parallelism int
	// GlobalBudget is the token budget the last budgeted poll granted
	// across all shards (budget × parallelism; 0 = unlimited poll).
	GlobalBudget int
	// EffectiveBudget is the budget after overload degradation — fewer
	// than GlobalBudget when the arrival rate exceeded thread capacity
	// (the queue-thrash dynamics behind Fig. 6's decline).
	EffectiveBudget int
	// FeedbackActions counts §3.2 sampling-rate reductions taken.
	FeedbackActions int64
	// FlushQueueDrops is always zero (no flush queue); the ledger's gate reads it.
	FlushQueueDrops int64 //tsvet:ignore unset-field read by benchmark/ until ROADMAP item 1(a)
	// PendingFlush is always zero (no flush queue); the ledger's gate reads it.
	PendingFlush int //tsvet:ignore unset-field read by benchmark/ until ROADMAP item 1(a)
	// SinkRetries counts redelivery attempts of batches the sink rejected
	// (each retried batch counts once per attempt; the points inside were
	// already charged to SinkErrors on the first failure).
	SinkRetries int64
	// SinkRetryDrops counts training points abandoned after exhausting the
	// bounded retry budget or overflowing the retry queue — the sink-side
	// graceful-degradation drop policy; they are lost.
	SinkRetryDrops int64
	// PendingRetry is the number of training points currently queued for
	// sink redelivery.
	PendingRetry int
	// Processed is the cumulative number of training points produced.
	Processed int64

	// Kernel holds per-subsystem shard counters; User covers the
	// user-probe queue shard.
	Kernel [NumSubsystems]SubsystemStats
	User   SubsystemStats

	// Rings holds each subsystem's per-CPU ring telemetry, indexed by CPU
	// (nil in user modes or before Deploy). Submitted/drained/dropped are
	// per individual ring, so a hot CPU shows up directly instead of being
	// averaged away in the subsystem aggregate.
	Rings [NumSubsystems][]bpf.RingStats

	// BatchSizeHist counts non-empty drain batches by size bucket (see
	// BatchHistLabels); a distribution stuck in the first bucket means the
	// drain cadence is outrunning the arrival rate and the batched drain
	// path is degenerating to per-sample cost.
	BatchSizeHist [BatchHistBuckets]int64

	// JIT holds the per-subsystem Collector compiled sizes and
	// interpreter/compiled dispatch counters (Enabled=false everywhere
	// when Config.CompileCollectors is off or in user modes; when it is
	// on, every program is compiled).
	JIT [NumSubsystems]CollectorJITStats

	// Autopilot is the online-retraining controller's self-report
	// (Enabled=false when no controller is attached). The controller
	// pushes a fresh block after every epoch tick, so a Stats snapshot
	// shows rates, error horizons, and drift state coherently with the
	// pipeline counters next to them.
	Autopilot AutopilotStats
}

// AutopilotStats reports the state of the online-retraining controller
// that closes the self-driving loop: what it learned (per-subsystem
// prequential error), what it concluded (drift/convergence), and what it
// did about it (the sampling rates it set).
type AutopilotStats struct {
	// Enabled reports whether a controller is attached.
	Enabled bool
	// Epochs counts controller ticks taken.
	Epochs int64
	// Refits counts incremental model refreshes performed.
	Refits int64
	// PointsConsumed counts archive rows absorbed into the online models.
	PointsConsumed int64
	// Segments counts sealed archive segments consumed.
	Segments int64
	// Rates is the sampling rate the controller last set per subsystem
	// (percent; -1 before the controller first touches a subsystem).
	Rates [NumSubsystems]int
	// RecentErrUS / BaselineErrUS are the fast/slow prequential
	// mean-absolute-error horizons per subsystem, in microseconds.
	RecentErrUS   [NumSubsystems]float64
	BaselineErrUS [NumSubsystems]float64
	// DriftEvents counts burst-sampling escalations per subsystem.
	DriftEvents [NumSubsystems]int64
	// Converged marks subsystems currently throttled to the floor rate.
	Converged [NumSubsystems]bool
}

// TotalInsnsSaved is always zero: codegen emits each Collector program in
// its final form, so no pass removes instructions before it loads. It
// stays while benchmark/ reads it (until ROADMAP item 1-S).
func (s *ProcessorStats) TotalInsnsSaved() int { return 0 }

// TotalCompiledPrograms counts Collector programs running natively across
// every subsystem.
func (s *ProcessorStats) TotalCompiledPrograms() int {
	n := 0
	for i := range s.JIT {
		n += s.JIT[i].CompiledPrograms()
	}
	return n
}

// TotalRuntimeFaults sums swallowed runtime faults across every kernel
// shard. Anything above zero means a verified program faulted at runtime.
func (s *ProcessorStats) TotalRuntimeFaults() int64 {
	n := int64(0)
	for i := range s.Kernel {
		n += s.Kernel[i].RuntimeFaults
	}
	return n
}

// TotalSubmitted sums submissions across every shard.
func (s *ProcessorStats) TotalSubmitted() int64 {
	n := s.User.Submitted
	for i := range s.Kernel {
		n += s.Kernel[i].Submitted
	}
	return n
}

// TotalDrained sums drained samples across every shard.
func (s *ProcessorStats) TotalDrained() int64 {
	n := s.User.Drained
	for i := range s.Kernel {
		n += s.Kernel[i].Drained
	}
	return n
}

// TotalDropped sums losses across every shard.
func (s *ProcessorStats) TotalDropped() int64 {
	n := s.User.Dropped
	for i := range s.Kernel {
		n += s.Kernel[i].Dropped
	}
	return n
}

// TotalOrphans sums the orphan classes across every kernel shard.
func (s *ProcessorStats) TotalOrphans() OrphanCounts {
	var o OrphanCounts
	for i := range s.Kernel {
		o.Add(s.Kernel[i].Orphans)
	}
	return o
}

// TotalCorruptDiscards sums corrupt-sample discards across every shard.
func (s *ProcessorStats) TotalCorruptDiscards() int64 {
	n := s.User.CorruptDiscards
	for i := range s.Kernel {
		n += s.Kernel[i].CorruptDiscards
	}
	return n
}

// DropFraction is dropped/submitted over the whole run (0 when idle).
func (s *ProcessorStats) DropFraction() float64 {
	sub := s.TotalSubmitted()
	if sub == 0 {
		return 0
	}
	return float64(s.TotalDropped()) / float64(sub)
}
