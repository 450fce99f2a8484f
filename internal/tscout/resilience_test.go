package tscout

import (
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

// This file holds the targeted regression tests for the mid-OU corruption
// bugs the fault-injection layer exposed: CPU migration between BEGIN and
// END (torn samples), pid reuse after a task dies mid-OU (stale pairing,
// never-enabled counters), and unsigned counter wraparound (absurd deltas
// archived as if real). Each test pins the resilient behavior: the bad
// sample never reaches the archive, and the loss lands in exactly one
// counted bucket.

// deployResilience is a 2-CPU kernel-mode deployment with one OU.
func deployResilience(t *testing.T, mode Mode) (*TScout, *kernel.Kernel, *Marker) {
	t.Helper()
	k := kernel.New(sim.LargeHW, 5, 0)
	k.SetNumCPUs(2)
	ts := New(k, Config{Mode: mode, Seed: 13, DisableProcessorFeedback: true, ProcessorSink: &recordingBatchSink{}})
	scan := ts.MustRegisterOU(OUDef{
		ID: testOUSeqScan, Name: "seq_scan", Subsystem: SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_bytes"},
	}, ResourceSet{CPU: true, Disk: true})
	if err := ts.Deploy(); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	ts.Sampler().SetAllRates(100)
	return ts, k, scan
}

// TestTornMigrationDiscard is the mid-OU migration regression: a task that
// migrates CPUs between BEGIN and END reads two unrelated per-CPU counter
// contexts, so the Collector must discard the invocation as TornMigration
// instead of archiving a sample whose deltas embed the ~2^40 cross-CPU
// base offset.
func TestTornMigrationDiscard(t *testing.T) {
	ts, k, scan := deployResilience(t, KernelContinuous)
	p := ts.Processor()
	task := k.NewTask("worker")

	// One clean OU on CPU 0: the control sample.
	runOU(ts, task, scan, sim.Work{Instructions: 2000}, 10, 2)

	// One OU torn by migration between BEGIN and END.
	ts.BeginEvent(task, SubsystemExecutionEngine)
	scan.Begin(task)
	task.Charge(sim.Work{Instructions: 2000})
	task.Migrate(1)
	task.Charge(sim.Work{Instructions: 2000})
	scan.End(task)
	scan.Features(task, 0, 10, 2)

	p.Drain(DrainOptions{})
	st := p.Stats()
	ks := st.Kernel[SubsystemExecutionEngine]

	if got := ks.Orphans.TornMigration; got != 1 {
		t.Fatalf("TornMigration = %d, want 1", got)
	}
	pts := sinkOf(ts).pointsFor(SubsystemExecutionEngine)
	if len(pts) != 1 {
		t.Fatalf("archived %d points, want only the clean control sample", len(pts))
	}
	// The surviving point's deltas must be same-CPU exact: nowhere near the
	// 2^40 cross-CPU base separation.
	if pts[0].Metrics.Cycles >= 1<<40 || pts[0].Metrics.Instructions >= 1<<40 {
		t.Fatalf("control sample carries a cross-CPU base offset: %+v", pts[0].Metrics)
	}
	if pts[0].Metrics.Instructions == 0 {
		t.Fatalf("control sample read disabled counters")
	}
	// Accounting: both BEGINs are accounted — one submitted, one torn.
	begins := ts.subsystems[SubsystemExecutionEngine].beginTP.Hits.Load()
	if begins != ks.Submitted+ks.Orphans.Total() {
		t.Fatalf("begin identity: %d begins != %d submitted + %d orphaned",
			begins, ks.Submitted, ks.Orphans.Total())
	}
	if ec := ts.CollectorFor(SubsystemExecutionEngine).ErrorCount(); ec != 0 {
		t.Fatalf("a torn migration is a counted discard, not a state-machine violation; got %d violations", ec)
	}
}

// TestPIDReuseRespawnCounters is the pid-reuse regression on the user-space
// bookkeeping: when a task dies and a new task recycles its pid, TScout
// must build fresh per-task state (enabling the new task's counters) rather
// than pairing the newcomer with the dead task's state. Before the fix the
// respawned task's samples read never-enabled counters: all-zero metrics
// archived as if the OU were free.
func TestPIDReuseRespawnCounters(t *testing.T) {
	ts, k, scan := deployResilience(t, KernelContinuous)
	p := ts.Processor()

	a := k.NewTask("worker")
	runOU(ts, a, scan, sim.Work{Instructions: 2000}, 1, 1)
	k.ExitTask(a)

	b := k.NewTask("respawn")
	if b.PID != a.PID {
		t.Fatalf("pid not recycled: a=%d b=%d", a.PID, b.PID)
	}
	if b.Gen() == a.Gen() {
		t.Fatalf("generation reused across tasks: %d", b.Gen())
	}
	runOU(ts, b, scan, sim.Work{Instructions: 2000}, 2, 2)

	p.Drain(DrainOptions{})
	pts := sinkOf(ts).pointsFor(SubsystemExecutionEngine)
	if len(pts) != 2 {
		t.Fatalf("archived %d points, want 2", len(pts))
	}
	for i, tp := range pts {
		if tp.Metrics.Instructions == 0 {
			t.Fatalf("point %d has zero instructions: the respawned task's counters were never enabled", i)
		}
	}
}

// TestPIDReuseKillMidOUReap is the pid-reuse regression on the kernel side:
// a task killed between BEGIN and FEATURES leaves an in-flight entry that a
// new task recycling the pid must never complete. Generation-keyed state
// plus the stale reaper turn the loss into a counted StaleReaped orphan and
// let the respawned task collect cleanly.
func TestPIDReuseKillMidOUReap(t *testing.T) {
	ts, k, scan := deployResilience(t, KernelContinuous)
	p := ts.Processor()

	a := k.NewTask("worker")
	ts.BeginEvent(a, SubsystemExecutionEngine)
	scan.Begin(a)
	a.Charge(sim.Work{Instructions: 1000})
	k.ExitTask(a) // killed mid-OU: END and FEATURES never arrive

	b := k.NewTask("respawn")
	if b.PID != a.PID {
		t.Fatalf("pid not recycled: a=%d b=%d", a.PID, b.PID)
	}
	runOU(ts, b, scan, sim.Work{Instructions: 2000}, 3, 3)

	p.Drain(DrainOptions{})
	st := p.Stats()
	ks := st.Kernel[SubsystemExecutionEngine]
	if got := ks.Orphans.StaleReaped; got != 1 {
		t.Fatalf("StaleReaped = %d, want 1 (the killed task's in-flight entry)", got)
	}
	if ec := ts.CollectorFor(SubsystemExecutionEngine).ErrorCount(); ec != 0 {
		t.Fatalf("pid reuse caused %d state-machine violations; gen keying should isolate the respawn", ec)
	}
	pts := sinkOf(ts).pointsFor(SubsystemExecutionEngine)
	if len(pts) != 1 {
		t.Fatalf("archived %d points, want exactly the respawned task's sample", len(pts))
	}
	if pts[0].Metrics.Instructions == 0 {
		t.Fatalf("respawned task's sample read disabled counters")
	}
	begins := ts.subsystems[SubsystemExecutionEngine].beginTP.Hits.Load()
	if begins != ks.Submitted+ks.Orphans.Total() {
		t.Fatalf("begin identity: %d begins != %d submitted + %d orphaned",
			begins, ks.Submitted, ks.Orphans.Total())
	}
}

// TestCounterWrapDiscard is the unsigned-wraparound regression on the
// kernel path: a perf counter that rolls backwards between BEGIN and END
// makes the END-minus-BEGIN subtraction wrap mod 2^64. The sample decodes
// fine but its metrics are physically impossible; the Processor must
// discard it as a counted CorruptDiscard, not archive it or call it a
// decode error.
func TestCounterWrapDiscard(t *testing.T) {
	ts, k, scan := deployResilience(t, KernelContinuous)
	p := ts.Processor()
	task := k.NewTask("worker")

	// Clean OU first so the counters hold nonzero accumulated values — a
	// wrap from zero is invisible.
	runOU(ts, task, scan, sim.Work{Instructions: 4000}, 1, 1)

	ts.BeginEvent(task, SubsystemExecutionEngine)
	scan.Begin(task)
	task.Charge(sim.Work{Instructions: 2000})
	task.Perf().InjectWrap(float64(uint64(1) << 44))
	scan.End(task)
	scan.Features(task, 0, 1, 1)

	p.Drain(DrainOptions{})
	st := p.Stats()
	ks := st.Kernel[SubsystemExecutionEngine]
	if got := ks.CorruptDiscards; got != 1 {
		t.Fatalf("CorruptDiscards = %d, want 1", got)
	}
	if ks.DecodeErrors != 0 {
		t.Fatalf("wrapped sample miscounted as a decode error")
	}
	pts := sinkOf(ts).pointsFor(SubsystemExecutionEngine)
	if len(pts) != 1 {
		t.Fatalf("archived %d points, want only the clean control sample", len(pts))
	}
	if pts[0].Metrics.Cycles >= corruptCounterLimit {
		t.Fatalf("wrapped delta reached the archive: %+v", pts[0].Metrics)
	}
	// The identity still balances: submitted == archived + corrupt.
	if ks.Submitted != ks.Points+ks.Dropped+ks.DecodeErrors+ks.CorruptDiscards {
		t.Fatalf("identity violated: %+v", ks)
	}
}

// TestUserModeWrapClamps is the wraparound audit on the user-probe path:
// deltaU64 clamps a backwards counter to zero, and the clamp must be
// counted (WrapClamps) instead of silently archiving a zero-cost OU.
func TestUserModeWrapClamps(t *testing.T) {
	ts, k, scan := deployResilience(t, UserContinuous)
	p := ts.Processor()
	task := k.NewTask("worker")

	runOU(ts, task, scan, sim.Work{Instructions: 4000}, 1, 1)

	ts.BeginEvent(task, SubsystemExecutionEngine)
	scan.Begin(task)
	task.Charge(sim.Work{Instructions: 2000})
	task.Perf().InjectWrap(float64(uint64(1) << 44))
	scan.End(task)
	scan.Features(task, 0, 1, 1)

	p.Drain(DrainOptions{})
	st := p.Stats()
	if st.User.WrapClamps == 0 {
		t.Fatalf("backwards counter readings were clamped without being counted")
	}
	pts := sinkOf(ts).points()
	if len(pts) != 2 {
		t.Fatalf("archived %d points, want 2 (clamped sample is kept, at zero)", len(pts))
	}
	for _, tp := range pts {
		if tp.Metrics.Cycles >= corruptCounterLimit {
			t.Fatalf("user-mode wrap reached the archive unclamped: %+v", tp.Metrics)
		}
	}
}

// TestMetricsSaneTable is the table-driven audit of the corrupt-metrics
// boundary: exactly which vectors the transform path discards.
func TestMetricsSaneTable(t *testing.T) {
	base := Metrics{
		ElapsedNS: 1000, Cycles: 5000, Instructions: 4000,
		CacheRefs: 100, CacheMisses: 10, RefCycles: 5000,
		DiskReadBytes: 64, DiskWriteBytes: 32, NetRecvBytes: 16, NetSendBytes: 8,
		AllocBytes: 4096,
	}
	cases := []struct {
		name   string
		mutate func(*Metrics)
		sane   bool
	}{
		{"clean", func(*Metrics) {}, true},
		{"zero", func(m *Metrics) { *m = Metrics{} }, true},
		{"counter at limit-1", func(m *Metrics) { m.Cycles = corruptCounterLimit - 1 }, true},
		{"cycles wrapped", func(m *Metrics) { m.Cycles = ^uint64(0) - 12345 }, false},
		{"instructions at limit", func(m *Metrics) { m.Instructions = corruptCounterLimit }, false},
		{"cache refs wrapped", func(m *Metrics) { m.CacheRefs = corruptCounterLimit + 7 }, false},
		{"cache misses wrapped", func(m *Metrics) { m.CacheMisses = ^uint64(0) }, false},
		{"ref cycles wrapped", func(m *Metrics) { m.RefCycles = corruptCounterLimit }, false},
		{"negative elapsed", func(m *Metrics) { m.ElapsedNS = -1 }, false},
		{"negative disk read", func(m *Metrics) { m.DiskReadBytes = -5 }, false},
		{"negative disk write", func(m *Metrics) { m.DiskWriteBytes = -5 }, false},
		{"negative net recv", func(m *Metrics) { m.NetRecvBytes = -5 }, false},
		{"negative net send", func(m *Metrics) { m.NetSendBytes = -5 }, false},
		// AllocBytes is DBMS-reported, not a monotone kernel counter; a
		// negative value (net deallocation) is the DBMS's claim to make.
		{"negative alloc allowed", func(m *Metrics) { m.AllocBytes = -4096 }, true},
	}
	for _, tc := range cases {
		m := base
		tc.mutate(&m)
		if got := metricsSane(m); got != tc.sane {
			t.Errorf("%s: metricsSane = %v, want %v", tc.name, got, tc.sane)
		}
	}
}

// TestSinkRetryRedelivers covers the sink-error retry path: a sink that
// fails transiently gets the batch redelivered after backoff, retries are
// counted, SinkErrors stays at the first-failure count, and a sink that
// never recovers drops the points after the bounded retry budget.
func TestSinkRetryRedelivers(t *testing.T) {
	sink := &flakySink{failures: 1}
	ts, k, scan := deployWithSink(t, sink)
	p := ts.Processor()
	task := k.NewTask("worker")
	runOU(ts, task, scan, sim.Work{Instructions: 1000}, 1, 1)
	p.Drain(DrainOptions{}) // first delivery fails, batch queued for retry

	st := p.Stats()
	if st.PendingRetry == 0 {
		t.Fatalf("failed batch not queued for retry")
	}
	firstErrors := st.Kernel[SubsystemExecutionEngine].SinkErrors
	if firstErrors == 0 {
		t.Fatalf("first failure not charged to SinkErrors")
	}
	assertDeliveryIdentity(t, st, sink.Rows()) // the point is parked, not lost

	// Drains advance the poll clock past the backoff; the sink now works.
	for i := 0; i < 4 && p.Stats().PendingRetry > 0; i++ {
		p.Drain(DrainOptions{})
	}
	st = p.Stats()
	if st.PendingRetry != 0 {
		t.Fatalf("retry never redelivered: %d points still pending", st.PendingRetry)
	}
	if st.SinkRetries == 0 {
		t.Fatalf("redelivery not counted in SinkRetries")
	}
	if st.SinkRetryDrops != 0 {
		t.Fatalf("recovered sink still dropped %d points", st.SinkRetryDrops)
	}
	if got := st.Kernel[SubsystemExecutionEngine].SinkErrors; got != firstErrors {
		t.Fatalf("retries inflated SinkErrors: %d -> %d", firstErrors, got)
	}
	if sink.delivered == 0 {
		t.Fatalf("sink never received the retried points")
	}
	assertDeliveryIdentity(t, st, sink.Rows())
}

// TestSinkRetryExhaustionDrops: a sink that keeps failing exhausts the
// bounded retry budget and the points are dropped — counted — instead of
// retrying forever.
func TestSinkRetryExhaustionDrops(t *testing.T) {
	sink := &flakySink{failures: 1 << 30} // never recovers
	ts, k, scan := deployWithSink(t, sink)
	p := ts.Processor()
	task := k.NewTask("worker")
	runOU(ts, task, scan, sim.Work{Instructions: 1000}, 1, 1)

	// Enough drains to walk through every backoff window (2+4+8 polls).
	for i := 0; i < 20; i++ {
		p.Drain(DrainOptions{})
	}
	st := p.Stats()
	if st.PendingRetry != 0 {
		t.Fatalf("%d points still queued after retry budget exhausted", st.PendingRetry)
	}
	if st.SinkRetryDrops == 0 {
		t.Fatalf("exhausted retries not counted as SinkRetryDrops")
	}
	if got := int64(maxSinkRetries); st.SinkRetries != got {
		t.Fatalf("SinkRetries = %d, want %d (one per backoff attempt)", st.SinkRetries, got)
	}
	assertDeliveryIdentity(t, st, sink.Rows())
}

func deployWithSink(t *testing.T, sink Sink) (*TScout, *kernel.Kernel, *Marker) {
	t.Helper()
	k := kernel.New(sim.LargeHW, 5, 0)
	ts := New(k, Config{Seed: 13, ProcessorSink: sink, DisableProcessorFeedback: true})
	scan := ts.MustRegisterOU(OUDef{
		ID: testOUSeqScan, Name: "seq_scan", Subsystem: SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_bytes"},
	}, ResourceSet{CPU: true})
	if err := ts.Deploy(); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	ts.Sampler().SetAllRates(100)
	return ts, k, scan
}

// flakySink fails its first `failures` WriteBatch calls, then succeeds.
// TestStickySinkFailsFast is the regression test for the sticky-retry
// burn: a sink that reports its write errors as permanent (StickySink,
// like archive.Writer) must not have batches redelivered through the
// 2+4+8-poll backoff ladder. After the one failing delivery, queued and
// future points fail fast into SinkRetryDrops, SinkRetries stays at zero,
// the sink sees no further WriteBatch calls, and every produced point is
// either in the sink or counted in SinkRetryDrops.
func TestStickySinkFailsFast(t *testing.T) {
	sink := &stickySink{}
	ts, k, scan := deployWithSink(t, sink)
	p := ts.Processor()
	task := k.NewTask("worker")

	// A healthy delivery first, so stickiness demonstrably starts at the
	// failure, not at deployment.
	runOU(ts, task, scan, sim.Work{Instructions: 1000}, 1, 1)
	p.Drain(DrainOptions{})
	if sink.delivered == 0 {
		t.Fatalf("healthy sink received nothing")
	}

	sink.fail()
	runOU(ts, task, scan, sim.Work{Instructions: 1000}, 2, 2)
	p.Drain(DrainOptions{}) // one real attempt fails; fast-fail kicks in
	callsAtFailure := sink.calls

	for i := 0; i < 20; i++ {
		runOU(ts, task, scan, sim.Work{Instructions: 1000}, uint64(3+i), 1)
		p.Drain(DrainOptions{})
	}
	st := p.Stats()
	if st.SinkRetries != 0 {
		t.Fatalf("sticky sink burned %d retry attempts; fast-fail must skip the backoff ladder", st.SinkRetries)
	}
	if st.PendingRetry != 0 {
		t.Fatalf("%d points parked against a dead sink", st.PendingRetry)
	}
	if st.SinkRetryDrops == 0 {
		t.Fatalf("fast-failed points not counted in SinkRetryDrops")
	}
	if sink.calls != callsAtFailure {
		t.Fatalf("sticky sink saw %d WriteBatch calls after its failing one", sink.calls-callsAtFailure)
	}
	// The accounting identity: every produced point either reached the
	// sink or is counted as an error, and drops never exceed errors.
	ks := st.Kernel[SubsystemExecutionEngine]
	if ks.Points != int64(sink.delivered)+ks.SinkErrors {
		t.Fatalf("points %d != delivered %d + sink errors %d", ks.Points, sink.delivered, ks.SinkErrors)
	}
	if st.SinkRetryDrops != ks.SinkErrors {
		t.Fatalf("SinkRetryDrops %d != SinkErrors %d: a point was dropped without being charged, or charged twice",
			st.SinkRetryDrops, ks.SinkErrors)
	}
	assertDeliveryIdentity(t, st, sink.Rows())
}

// stickySink mimics archive.Writer's failure model: after fail() every
// write reports the same permanent error, and StickyErr exposes it.
type stickySink struct {
	err       error
	calls     int
	delivered int
}

func (s *stickySink) fail() { s.err = errSinkDown }

func (s *stickySink) WriteBatch(pts []TrainingPoint) error {
	if s.err != nil {
		s.calls++
		return s.err
	}
	s.delivered += len(pts)
	return nil
}

func (s *stickySink) Flush() error     { return s.err }
func (s *stickySink) Rows() int64      { return int64(s.delivered) }
func (s *stickySink) StickyErr() error { return s.err }

type flakySink struct {
	failures  int
	calls     int
	delivered int
}

func (s *flakySink) WriteBatch(pts []TrainingPoint) error {
	s.calls++
	if s.calls <= s.failures {
		return errSinkDown
	}
	s.delivered += len(pts)
	return nil
}

func (s *flakySink) Flush() error { return nil }
func (s *flakySink) Rows() int64  { return int64(s.delivered) }

var errSinkDown = errTest("sink down")

type errTest string

func (e errTest) Error() string { return string(e) }

// deployCompiled is the deployment dbms.NewServer makes — Kernel-Continuous,
// optimized and JIT-compiled Collectors — with one ten-feature OU sampled
// at 100 %. The ring is four samples deep so a test can wrap it: a ring
// slot's buffer is allocated the first time the slot is used.
func deployCompiled(t *testing.T, k *kernel.Kernel) (*TScout, *Marker) {
	t.Helper()
	ts := New(k, Config{Seed: 13, RingCapacity: 4, DisableProcessorFeedback: true,
		OptimizeCollectors: true, CompileCollectors: true, ProcessorSink: &recordingBatchSink{}})
	scan := ts.MustRegisterOU(OUDef{
		ID: testOUSeqScan, Name: "seq_scan", Subsystem: SubsystemExecutionEngine,
		Features: []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9"},
	}, ResourceSet{CPU: true, Disk: true, Network: true})
	if err := ts.Deploy(); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	ts.Sampler().SetAllRates(100)
	return ts, scan
}

// TestMarkerCycleAllocationFree pins the marker path's allocation budget at
// zero: once a task's state, argument scratch, execution state and map
// entry buffer exist, BEGIN → END → FEATURES reuses all of them. (Five per
// cycle before: two {id} argument slices, the FEATURES argument slice, and
// the entries map's key string and value buffer.)
func TestMarkerCycleAllocationFree(t *testing.T) {
	k := kernel.New(sim.LargeHW, 5, 0)
	ts, scan := deployCompiled(t, k)
	task := k.NewTask("worker")
	feats := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cycle := func() {
		ts.BeginEvent(task, SubsystemExecutionEngine)
		scan.Begin(task)
		scan.End(task)
		scan.Features(task, 64, feats...)
	}
	// Warm-up: first contact, scratch growth and the first map entry take
	// one cycle; the other three touch the rest of the ring's slots.
	for i := 0; i < 4; i++ {
		cycle()
	}
	ring := ts.CollectorFor(SubsystemExecutionEngine).Ring
	before := ring.Stats().Submitted
	const runs = 50
	if n := testing.AllocsPerRun(runs, cycle); n != 0 {
		t.Fatalf("BEGIN → END → FEATURES allocates %v times per cycle, want 0", n)
	}
	// AllocsPerRun calls cycle once more than runs, to warm up.
	if got := ring.Stats().Submitted - before; got != runs+1 {
		t.Fatalf("%d samples reached the ring over %d cycles", got, runs+1)
	}
	if js := ts.CollectorFor(SubsystemExecutionEngine).JITStats(); js.CompiledPrograms() != 3 || js.RuntimeFaults() != 0 {
		t.Fatalf("collector not fully compiled or faulting: %+v", js)
	}
}

// TestTaskLocalStateOwnership covers what the task-local fast path must
// not change: a task recycling a dead task's pid starts from fresh state
// carrying only the dead task's error counters, and two deployments
// driving one task each keep their own state.
func TestTaskLocalStateOwnership(t *testing.T) {
	k := kernel.New(sim.LargeHW, 5, 0)
	ts, _ := deployCompiled(t, k)

	a := k.NewTask("worker")
	sa := ts.taskStateFor(a)
	if ts.taskStateFor(a) != sa || a.Local() != any(sa) {
		t.Fatalf("a live task must keep one state, parked in its local slot")
	}
	sa.eventSampled[SubsystemExecutionEngine] = true
	sa.userErrors, sa.wrapClamps = 3, 4
	k.ExitTask(a)

	b := k.NewTask("respawn")
	if b.PID != a.PID {
		t.Fatalf("pid not recycled: a=%d b=%d", a.PID, b.PID)
	}
	sb := ts.taskStateFor(b)
	if sb == sa || sb.task != b || sb.eventSampled[SubsystemExecutionEngine] {
		t.Fatalf("respawned task inherited the dead task's state")
	}
	if sb.userErrors != 3 || sb.wrapClamps != 4 {
		t.Fatalf("carried counters: errors %d clamps %d, want 3 and 4", sb.userErrors, sb.wrapClamps)
	}
	if got := ts.UserStateErrors(); got != 3 {
		t.Fatalf("UserStateErrors = %d, want 3 (the table must hold the respawned task's state)", got)
	}
	if b.Perf().EnabledCount() == 0 {
		t.Fatalf("first contact did not enable the respawned task's counters")
	}

	// A second deployment on the same kernel drives the same task.
	other, _ := deployCompiled(t, k)
	so := other.taskStateFor(b)
	if so == sb || so.owner != other {
		t.Fatalf("second deployment was handed the first one's state")
	}
	so.sampleOffsets[SubsystemExecutionEngine] = 9
	if got := ts.taskStateFor(b); got != sb || got.sampleOffsets[SubsystemExecutionEngine] != 0 {
		t.Fatalf("first deployment lost its state to the second")
	}
	if other.taskStateFor(b) != so {
		t.Fatalf("second deployment lost its state to the first")
	}
}
