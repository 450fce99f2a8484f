// Package wal implements the DBMS's write-ahead logging subsystem as two
// cooperating components, matching the NoisePage architecture the paper
// models: the log serializer, which batches commit records under a group
// commit policy, and the disk writer, which flushes serialized buffers to
// the (simulated) SSD. Both are TScout OUs; their strong dependence on
// arrival rate and batch size is exactly why the paper's offline runners
// mis-predict them and online data helps most (Figs. 2, 7, 9).
package wal

import (
	"cmp"
	"slices"
	"sync"

	"tscout/internal/kernel"
	"tscout/internal/sim"
	"tscout/internal/tscout"
)

// RecordKind classifies a log record.
type RecordKind int

// Record kinds.
const (
	RecordInsert RecordKind = iota
	RecordUpdate
	RecordDelete
	RecordCommit
)

// Record is one redo log record.
type Record struct {
	Kind  RecordKind
	TxnID uint64
	Table string
	Bytes int64
}

// Commit is one transaction's pending group-commit handle. DoneNS is the
// virtual time at which the commit became durable (set when its batch
// flushes); Resolved reports whether the flush has happened.
type Commit struct {
	Records   []Record
	Bytes     int64
	ArrivalNS int64
	DoneNS    int64
	Resolved  bool
}

// Config tunes the group commit policy.
type Config struct {
	// GroupSize flushes when this many transactions are pending
	// (default 32).
	GroupSize int
	// FlushIntervalNS flushes when the oldest pending commit has waited
	// this long (default 200µs).
	FlushIntervalNS int64
	// Synchronous flushes every commit immediately (batch size 1): the
	// configuration the offline runners exercise, with no group commit
	// amortization.
	Synchronous bool
}

func (c Config) withDefaults() Config {
	if c.GroupSize <= 0 {
		c.GroupSize = 32
	}
	if c.FlushIntervalNS <= 0 {
		c.FlushIntervalNS = 200_000
	}
	return c
}

// Serializer is the WAL subsystem: group-commit batching plus flushing.
// It owns two kernel tasks (the serializer and disk-writer threads).
type Serializer struct {
	cfg Config

	mu        sync.Mutex
	serTask   *kernel.Task
	wrTask    *kernel.Task
	ts        *tscout.TScout
	serMarker *tscout.Marker
	wrMarker  *tscout.Marker

	pending     []*Commit // guarded by mu
	pendingRecs int       // guarded by mu
	pendingB    int64     // guarded by mu

	// Deferred-submission state for the epoch driver: while deferMode is
	// set, SubmitFrom stages commits instead of entering them into the
	// pending batch, and CommitStaged replays the stage in a deterministic
	// merged order at the epoch barrier.
	deferMode bool           // guarded by mu
	stage     []stagedCommit // guarded by mu
	stageSeq  []uint64       // guarded by mu — per CPU, grown on demand

	flushes    int64 // guarded by mu
	recsLogged int64 // guarded by mu
	bytesDone  int64 // guarded by mu
}

// stagedCommit is one deferred submission: the commit plus the merge key
// (ArrivalNS, cpu, seq) that fixes its position in the barrier replay
// independent of which goroutine staged first.
type stagedCommit struct {
	c   *Commit
	cpu int
	seq uint64
}

// New creates the WAL subsystem. The markers may be nil (uninstrumented
// DBMS); ts may be nil as well.
func New(k *kernel.Kernel, ts *tscout.TScout, serMarker, wrMarker *tscout.Marker, cfg Config) *Serializer {
	return &Serializer{
		cfg:       cfg.withDefaults(),
		serTask:   k.NewTask("wal-serializer"),
		wrTask:    k.NewTask("wal-writer"),
		ts:        ts,
		serMarker: serMarker,
		wrMarker:  wrMarker,
	}
}

// Submit registers a transaction's records for group commit at virtual
// time nowNS and returns its pending handle. When the batch-size policy
// trips, the flush happens immediately (at nowNS) and the handle resolves
// before Submit returns.
func (s *Serializer) Submit(records []Record, nowNS int64) *Commit {
	return s.SubmitFrom(records, nowNS, 0)
}

// SubmitFrom is Submit with the submitting task's simulated CPU. The CPU
// matters only in deferred mode, where it is part of the deterministic
// merge key; outside deferred mode SubmitFrom behaves exactly like Submit.
func (s *Serializer) SubmitFrom(records []Record, nowNS int64, cpu int) *Commit {
	var bytes int64
	for _, r := range records {
		bytes += r.Bytes
	}
	c := &Commit{Records: records, Bytes: bytes, ArrivalNS: nowNS}
	s.mu.Lock()
	if s.deferMode {
		for cpu >= len(s.stageSeq) {
			s.stageSeq = append(s.stageSeq, 0)
		}
		s.stage = append(s.stage, stagedCommit{c: c, cpu: cpu, seq: s.stageSeq[cpu]})
		s.stageSeq[cpu]++
		s.mu.Unlock()
		return c
	}
	s.pending = append(s.pending, c)
	s.pendingRecs += len(records)
	s.pendingB += bytes
	trip := s.cfg.Synchronous || len(s.pending) >= s.cfg.GroupSize
	s.mu.Unlock()
	if trip {
		s.Flush(nowNS)
	}
	return c
}

// SetDeferMode switches deferred submission on or off. In deferred mode
// SubmitFrom stages commits without flushing — the epoch driver turns it
// on so per-CPU execution within an epoch never triggers a flush at a
// goroutine-interleaving-dependent moment — and CommitStaged replays the
// stage at the barrier. Turning defer mode off does not replay a non-empty
// stage; call CommitStaged first.
func (s *Serializer) SetDeferMode(v bool) {
	s.mu.Lock()
	s.deferMode = v
	s.mu.Unlock()
}

// CommitStaged replays every staged submission in merged order — sorted by
// (ArrivalNS, cpu, seq) — through the normal group-commit policy, firing
// any batch-size-triggered flushes at the tripping commit's own arrival
// time. The result is bit-identical to the commits having been submitted
// serially in that order, which makes the epoch schedule a deterministic
// function of per-CPU virtual time alone. It returns the number of commits
// replayed. Per-CPU sequence counters reset afterwards so the next epoch
// merges from zero.
func (s *Serializer) CommitStaged() int {
	s.mu.Lock()
	staged := s.stage
	s.stage = nil
	clear(s.stageSeq)
	s.mu.Unlock()
	if len(staged) == 0 {
		return 0
	}
	slices.SortStableFunc(staged, func(a, b stagedCommit) int {
		if c := cmp.Compare(a.c.ArrivalNS, b.c.ArrivalNS); c != 0 {
			return c
		}
		if c := cmp.Compare(a.cpu, b.cpu); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for _, sc := range staged {
		s.mu.Lock()
		s.pending = append(s.pending, sc.c)
		s.pendingRecs += len(sc.c.Records)
		s.pendingB += sc.c.Bytes
		trip := s.cfg.Synchronous || len(s.pending) >= s.cfg.GroupSize
		s.mu.Unlock()
		if trip {
			s.Flush(sc.c.ArrivalNS)
		}
	}
	return len(staged)
}

// StagedCount returns the number of deferred submissions awaiting replay.
func (s *Serializer) StagedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stage)
}

// Tick flushes the pending batch if the oldest commit has exceeded the
// group-commit window at virtual time nowNS. The workload driver calls it
// as simulated time advances.
func (s *Serializer) Tick(nowNS int64) {
	s.mu.Lock()
	due := len(s.pending) > 0 && nowNS >= s.pending[0].ArrivalNS+s.cfg.FlushIntervalNS
	s.mu.Unlock()
	if due {
		s.Flush(nowNS)
	}
}

// NextDeadline returns the virtual time at which the pending batch must
// flush, or -1 when nothing is pending. The driver uses it to wake the
// WAL when every terminal is blocked on a commit.
func (s *Serializer) NextDeadline() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return -1
	}
	return s.pending[0].ArrivalNS + s.cfg.FlushIntervalNS
}

// Flush serializes and writes the pending batch at virtual time nowNS,
// resolving every member commit. It is the log serializer OU followed by
// the disk writer OU.
func (s *Serializer) Flush(nowNS int64) {
	s.mu.Lock()
	batch := s.pending
	s.pending = nil
	s.pendingRecs = 0
	s.pendingB = 0
	s.mu.Unlock()
	if len(batch) == 0 {
		return
	}

	// The serializer thread wakes when the trigger fires.
	s.serTask.Clock.AdvanceTo(nowNS)

	var recs int
	var bytes int64
	for _, c := range batch {
		recs += len(c.Records)
		bytes += c.Bytes
	}

	// Log serializer OU: copy records into the flush buffer. Cost is
	// per-record dominated with a per-byte term; group commit amortizes
	// the per-batch constant (flush buffer setup), which is the behavior
	// offline runners with singleton batches never observe.
	serWork := sim.Work{
		Instructions:    9000 + 650*float64(recs) + 0.45*float64(bytes),
		BytesTouched:    float64(bytes) + 64*float64(recs),
		WorkingSetBytes: float64(bytes) + 4096,
		AllocBytes:      bytes + 512,
	}
	if s.ts != nil && s.serMarker != nil {
		s.ts.BeginEvent(s.serTask, tscout.SubsystemLogSerializer)
		s.serMarker.Begin(s.serTask)
		s.serTask.Charge(serWork)
		s.serMarker.End(s.serTask)
		s.serMarker.Features(s.serTask, serWork.AllocBytes,
			uint64(recs), uint64(bytes), uint64(len(batch)))
	} else {
		s.serTask.Charge(serWork)
	}

	// The disk writer thread takes over when serialization finishes: one
	// write header and one physical IO dispatch per flush.
	const header = 4096
	s.wrTask.Clock.AdvanceTo(s.serTask.Now())
	wrWork := sim.Work{
		Instructions:   4000 + 0.05*float64(bytes),
		BytesTouched:   512,
		DiskWriteBytes: bytes + header,
		DiskOps:        1,
	}
	if s.ts != nil && s.wrMarker != nil {
		s.ts.BeginEvent(s.wrTask, tscout.SubsystemDiskWriter)
		s.wrMarker.Begin(s.wrTask)
		s.wrTask.Charge(wrWork)
		s.wrMarker.End(s.wrTask)
		s.wrMarker.Features(s.wrTask, 0,
			uint64(bytes+header), uint64(recs))
	} else {
		s.wrTask.Charge(wrWork)
	}

	done := s.wrTask.Now()
	s.mu.Lock()
	for _, c := range batch {
		c.DoneNS = done
		c.Resolved = true
	}
	s.flushes++
	s.recsLogged += int64(recs)
	s.bytesDone += bytes
	s.mu.Unlock()
}

// Stats returns (flushes, records logged, bytes flushed).
func (s *Serializer) Stats() (int64, int64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushes, s.recsLogged, s.bytesDone
}

// PendingCount returns the number of unflushed commits.
func (s *Serializer) PendingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}
