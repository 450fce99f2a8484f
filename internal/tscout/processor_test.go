package tscout

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

// newShardedDeployment builds a kernel-mode deployment with one OU per
// subsystem so every drain shard has traffic.
func newShardedDeployment(t *testing.T, cfg Config) (*TScout, [NumSubsystems]OUID) {
	t.Helper()
	k := kernel.New(sim.LargeHW, 3, 0)
	cfg.Mode = KernelContinuous
	ts := New(k, cfg)
	var ous [NumSubsystems]OUID
	for i, sub := range AllSubsystems {
		id := OUID(40 + i)
		ts.MustRegisterOU(OUDef{
			ID: id, Name: fmt.Sprintf("ou_%s", sub), Subsystem: sub,
			Features: []string{"f0", "f1"},
		}, ResourceSet{CPU: true})
		ous[sub] = id
	}
	if err := ts.Deploy(); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	ts.Sampler().SetAllRates(100)
	return ts, ous
}

func submitKernel(ts *TScout, sub SubsystemID, ou OUID, n int) {
	col := ts.CollectorFor(sub)
	for i := 0; i < n; i++ {
		col.Ring.Submit(EncodeSample(ou, 1, Metrics{ElapsedNS: 10}, []uint64{1, 2}))
	}
}

// TestFeedbackFiresLateInLongRun is the regression test for the feedback
// accounting bug: the drop threshold was compared against the ring's
// cumulative submission count instead of the period's, so the longer a
// deployment ran, the larger a drop burst had to be before feedback fired.
// After 200 quiet periods (10k cumulative submissions), a one-period burst
// that drops ~18% of its own samples must still trigger the §3.2 rate
// reduction; under cumulative accounting the burst's 904 drops sat below
// the stale 1500-sample threshold and feedback never fired.
func TestFeedbackFiresLateInLongRun(t *testing.T) {
	ts, ous := newShardedDeployment(t, Config{Seed: 5, RingCapacity: 4096})
	sub := SubsystemExecutionEngine
	p := ts.Processor()

	// A long healthy run: 200 periods of 50 samples, fully drained.
	for period := 0; period < 200; period++ {
		submitKernel(ts, sub, ous[sub], 50)
		p.Drain(DrainOptions{Budget: 200})
	}
	if got := ts.Sampler().Rate(sub); got != 100 {
		t.Fatalf("feedback fired during healthy run: rate=%d", got)
	}

	// One overload burst: 5000 submissions into a 4096 ring drops 904
	// samples this period (18%% of the period's 5000, but only 6%% of the
	// run's cumulative 15000).
	submitKernel(ts, sub, ous[sub], 5000)
	p.Drain(DrainOptions{Budget: 200})
	if got := ts.Sampler().Rate(sub); got >= 100 {
		t.Fatalf("feedback did not fire on a late drop burst: rate=%d", got)
	}
	if st := p.Stats(); st.FeedbackActions == 0 {
		t.Fatalf("FeedbackActions not counted: %+v", st)
	}
}

// TestResetClearsPipelineState: Reset must clear the user-queue counters
// and the per-period baselines, not just the point counters — stale
// baselines would poison the first post-reset feedback and demand computation.
func TestResetClearsPipelineState(t *testing.T) {
	ts, ous := newShardedDeployment(t, Config{Seed: 6, RingCapacity: 64})
	p := ts.Processor()

	// Overflow the user queue so Submitted and Dropped are both nonzero.
	for i := 0; i < userQueueCapacity+10; i++ {
		p.SubmitUserSample(EncodeSample(ous[SubsystemNetworking], 2, Metrics{}, []uint64{1, 2}))
	}
	submitKernel(ts, SubsystemExecutionEngine, ous[SubsystemExecutionEngine], 30)
	p.Drain(DrainOptions{})
	if p.Stats().User.Submitted == 0 || p.Stats().User.Dropped == 0 || p.Stats().Processed == 0 {
		t.Fatalf("setup did not exercise the pipeline: %+v", p.Stats())
	}

	p.Reset()
	if got := p.Stats().User.Submitted; got != 0 {
		t.Fatalf("UserSubmitted after Reset = %d", got)
	}
	if got := p.Stats().User.Dropped; got != 0 {
		t.Fatalf("UserDropped after Reset = %d", got)
	}
	if got := p.Stats().Processed; got != 0 {
		t.Fatalf("Processed after Reset = %d", got)
	}
	st := p.Stats()
	if st.TotalSubmitted() != 0 || st.TotalDropped() != 0 || st.Polls != 0 {
		t.Fatalf("stats not cleared by Reset: %+v", st)
	}

	// The first post-reset period must compute deltas from zero, not from
	// the pre-reset cumulative counters (which would yield negative
	// deltas and suppress the demand calculation).
	submitKernel(ts, SubsystemExecutionEngine, ous[SubsystemExecutionEngine], 20)
	p.Drain(DrainOptions{Budget: 100})
	st = p.Stats()
	ee := st.Kernel[SubsystemExecutionEngine]
	if ee.DeltaSubmitted != 20 || ee.DeltaDrained != 20 {
		t.Fatalf("post-reset deltas wrong: %+v", ee)
	}
}

// TestGlobalBudgetSharedAcrossSubsystems: one budgeted poll must drain at
// most budget × parallelism samples across ALL subsystems combined — the
// bug was draining a full budget per subsystem ring (4× overspend).
func TestGlobalBudgetSharedAcrossSubsystems(t *testing.T) {
	ts, ous := newShardedDeployment(t, Config{Seed: 7, RingCapacity: 256})
	p := ts.Processor()
	for _, sub := range AllSubsystems {
		submitKernel(ts, sub, ous[sub], 100)
	}

	const budget = 50
	p.Drain(DrainOptions{Budget: budget})
	st := p.Stats()
	if st.GlobalBudget != budget {
		t.Fatalf("global budget = %d, want %d (parallelism 1)", st.GlobalBudget, budget)
	}
	var drained int64
	for _, sub := range AllSubsystems {
		d := st.Kernel[sub].DeltaDrained
		if d == 0 {
			t.Fatalf("shard %s starved by waterfill: %+v", sub, st.Kernel[sub])
		}
		drained += d
	}
	if drained > budget {
		t.Fatalf("drained %d samples in one period, budget %d: per-ring overspend is back", drained, budget)
	}
	// Overload (demand 400 vs budget 50) must degrade the effective
	// budget below the nominal one.
	if st.EffectiveBudget >= st.GlobalBudget {
		t.Fatalf("no overload degradation: effective=%d global=%d", st.EffectiveBudget, st.GlobalBudget)
	}
	if drained != int64(st.EffectiveBudget) {
		t.Fatalf("drained %d != effective budget %d", drained, st.EffectiveBudget)
	}
}

// TestShardedParallelismScalesBudget: the same overload drained with 4
// modeled threads must get through strictly more samples per period than
// the single-threaded Processor, and the extra work must land on the
// worker tasks' clocks (makespan < total CPU time).
func TestShardedParallelismScalesBudget(t *testing.T) {
	drainOnePeriod := func(parallelism int) (int64, ProcessorStats) {
		ts, ous := newShardedDeployment(t, Config{
			Seed: 8, RingCapacity: 256, ProcessorParallelism: parallelism,
		})
		p := ts.Processor()
		for _, sub := range AllSubsystems {
			submitKernel(ts, sub, ous[sub], 100)
		}
		p.Drain(DrainOptions{Budget: 50})
		st := p.Stats()
		var drained int64
		for _, sub := range AllSubsystems {
			drained += st.Kernel[sub].DeltaDrained
		}
		return drained, st
	}

	single, _ := drainOnePeriod(1)
	sharded, st4 := drainOnePeriod(4)
	if st4.Parallelism != 4 || st4.GlobalBudget != 200 {
		t.Fatalf("parallel budget wrong: %+v", st4)
	}
	if sharded <= single {
		t.Fatalf("4 drain threads drained %d <= single thread's %d", sharded, single)
	}
	if sharded > 200 {
		t.Fatalf("global budget exceeded: drained %d > 200", sharded)
	}
}

// TestUserQueueDrainPenalty: user-probe samples cost userDrainPenalty
// budget tokens each, so a budgeted poll retrieves roughly budget/penalty
// of them — the §6.2 reason user modes plateau early.
func TestUserQueueDrainPenalty(t *testing.T) {
	k := kernel.New(sim.LargeHW, 9, 0)
	ts := New(k, Config{Mode: UserToggle, Seed: 9})
	ts.MustRegisterOU(OUDef{
		ID: 70, Name: "user_ou", Subsystem: SubsystemExecutionEngine,
		Features: []string{"f0", "f1"},
	}, ResourceSet{CPU: true})
	if err := ts.Deploy(); err != nil {
		t.Fatal(err)
	}
	p := ts.Processor()
	for i := 0; i < 20; i++ {
		p.SubmitUserSample(EncodeSample(70, 3, Metrics{}, []uint64{1, 2}))
	}
	// Demand (20 samples × 3 tokens = 60) fits the budget: everything
	// drains, but the 90 tokens bought only 30 samples' worth of work.
	const budget = 90
	if n := p.Drain(DrainOptions{Budget: budget}).Points; n != 20 {
		t.Fatalf("underloaded poll drained %d user samples, want all 20", n)
	}

	// Overload: the queue holds far more than one period's worth. The
	// effective budget degrades and each retrieval still costs penalty
	// tokens, so the period gets effective/penalty samples — not the
	// budget/penalty a healthy period would, and nowhere near the 90
	// kernel samples the same tokens would buy.
	for i := 0; i < 300; i++ {
		p.SubmitUserSample(EncodeSample(70, 3, Metrics{}, []uint64{1, 2}))
	}
	n := p.Drain(DrainOptions{Budget: budget}).Points
	st := p.Stats()
	if st.EffectiveBudget >= budget {
		t.Fatalf("no degradation under overload: %+v", st)
	}
	if want := st.EffectiveBudget / userDrainPenalty; n != want {
		t.Fatalf("drained %d user samples, want effective %d / penalty %d = %d",
			n, st.EffectiveBudget, userDrainPenalty, want)
	}
}

// reentrantSink calls back into the Processor from inside WriteBatch: it
// reads stats, submits a sample, and re-polls. If any Processor lock were
// held across Sink.WriteBatch, this would deadlock (single-goroutine
// self-lock).
type reentrantSink struct {
	p        *Processor
	repolled bool
	writes   int
}

func (s *reentrantSink) WriteBatch(pts []TrainingPoint) error {
	for _, tp := range pts {
		s.writes++
		_ = s.p.Stats().Processed
		_ = s.p.Stats()
		s.p.SubmitUserSample(EncodeSample(tp.OU, tp.PID, Metrics{}, []uint64{1, 2}))
		if !s.repolled {
			s.repolled = true
			s.p.Drain(DrainOptions{})
		}
	}
	return nil
}

func (s *reentrantSink) Flush() error { return nil }
func (s *reentrantSink) Rows() int64  { return int64(s.writes) }

// TestReentrantSinkDoesNotDeadlock is the acceptance check that no sink
// delivery happens while a Processor lock is held: the sink re-enters
// the Processor (stats, submissions, even a nested Poll) from WriteBatch.
func TestReentrantSinkDoesNotDeadlock(t *testing.T) {
	k := kernel.New(sim.LargeHW, 10, 0)
	sink := &reentrantSink{}
	ts := New(k, Config{Mode: KernelContinuous, Seed: 10, ProcessorSink: sink})
	ts.MustRegisterOU(OUDef{
		ID: 71, Name: "sink_ou", Subsystem: SubsystemExecutionEngine,
		Features: []string{"f0", "f1"},
	}, ResourceSet{CPU: true})
	if err := ts.Deploy(); err != nil {
		t.Fatal(err)
	}
	p := ts.Processor()
	sink.p = p
	submitKernel(ts, SubsystemExecutionEngine, 71, 20)
	p.Drain(DrainOptions{})
	if sink.writes == 0 {
		t.Fatalf("sink never invoked")
	}
	// The samples the sink itself submitted drain on a later poll.
	p.Drain(DrainOptions{})
	if got := p.Stats().User.Submitted; got == 0 {
		t.Fatalf("re-entrant submissions lost")
	}
}

// TestFeatureVectorPadAndTruncate: decoded vectors are normalized to the
// OU's declared width — short ones zero-padded, long ones truncated — and
// both repairs are counted in the shard stats. Silently emitting short
// vectors would misalign Features against FeatureNames downstream.
func TestFeatureVectorPadAndTruncate(t *testing.T) {
	ts, _ := newShardedDeployment(t, Config{Seed: 11, ProcessorSink: &recordingBatchSink{}})
	sub := SubsystemNetworking
	ts.Undeploy()
	ou := ts.MustRegisterOU(OUDef{
		ID: 72, Name: "wide_ou", Subsystem: sub,
		Features: []string{"a", "b", "c"},
	}, ResourceSet{CPU: true})
	_ = ou
	if err := ts.Deploy(); err != nil {
		t.Fatal(err)
	}
	col := ts.CollectorFor(sub)
	col.Ring.Submit(EncodeSample(72, 1, Metrics{}, []uint64{7}))             // short
	col.Ring.Submit(EncodeSample(72, 1, Metrics{}, []uint64{1, 2, 3, 4, 5})) // long
	p := ts.Processor()
	p.Drain(DrainOptions{})

	pts := sinkOf(ts).pointsFor(sub)
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for i, tp := range pts {
		if len(tp.Features) != 3 || len(tp.FeatureNames) != 3 {
			t.Fatalf("point %d not normalized to declared width: %+v", i, tp)
		}
	}
	if pts[0].Features[0] != 7 || pts[0].Features[1] != 0 || pts[0].Features[2] != 0 {
		t.Fatalf("short vector not zero-padded: %v", pts[0].Features)
	}
	if pts[1].Features[0] != 1 || pts[1].Features[2] != 3 {
		t.Fatalf("long vector not truncated in order: %v", pts[1].Features)
	}
	st := p.Stats()
	if st.Kernel[sub].PaddedFeatures != 1 || st.Kernel[sub].TruncatedFeatures != 1 {
		t.Fatalf("repairs not counted: %+v", st.Kernel[sub])
	}
}

// TestProcessorConcurrentSubmitPollReset hammers the sharded pipeline from
// multiple goroutines — kernel ring submits, user-queue submits, budgeted
// polls, stats reads, and resets — and relies on -race to prove the
// locking discipline.
func TestProcessorConcurrentSubmitPollReset(t *testing.T) {
	sink := &recordingBatchSink{}
	ts, ous := newShardedDeployment(t, Config{Seed: 12, RingCapacity: 128, ProcessorParallelism: 2, ProcessorSink: sink})
	p := ts.Processor()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, sub := range AllSubsystems {
		wg.Add(1)
		go func(sub SubsystemID) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				submitKernel(ts, sub, ous[sub], 1)
			}
		}(sub)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			p.SubmitUserSample(EncodeSample(ous[SubsystemNetworking], 4, Metrics{}, []uint64{1, 2}))
		}
	}()
	// The observer goroutine is deliberately NOT in the producer wait
	// group: it runs until the main goroutine closes stop.
	observerDone := make(chan struct{})
	go func() {
		defer close(observerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = p.Stats()
			_ = sink.Rows()
			if i%13 == 12 {
				p.Reset()
			}
		}
	}()

	producersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(producersDone)
	}()
	polls := 0
	for done := false; !done; {
		p.Drain(DrainOptions{Budget: 64})
		polls++
		select {
		case <-producersDone:
			done = true
		default:
		}
	}
	close(stop)
	<-observerDone
	// Final unlimited sweep: everything still buffered comes out.
	p.Drain(DrainOptions{})
	if polls == 0 {
		t.Fatalf("no polls ran")
	}
	st := p.Stats()
	if st.TotalDrained() < 0 || st.TotalSubmitted() < st.TotalDrained() {
		t.Fatalf("impossible accounting after concurrent run: %+v", st)
	}
}

// TestDrainMemoryIsBounded: the sink is the only place a point lives after
// Drain, so half a million points through a sink that discards them must
// leave the heap where it started — the Processor's memory is a function of
// its queues, not of how long it has been running.
func TestDrainMemoryIsBounded(t *testing.T) {
	sink := &recordingBatchSink{discard: true}
	ts, ous := newShardedDeployment(t, Config{Seed: 14, ProcessorSink: sink})
	p := ts.Processor()
	const perDrain, drains = 250, 500 // × 4 subsystems = 500 000 points
	round := func() {
		for _, sub := range AllSubsystems {
			submitKernel(ts, sub, ous[sub], perDrain)
		}
		p.Drain(DrainOptions{})
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// Warm-up: one lap of every 4096-slot ring (slots allocate on first
	// use) and the drain batches.
	const warm = 20
	for i := 0; i < warm; i++ {
		round()
	}
	before := heap()
	for i := 0; i < drains; i++ {
		round()
	}
	after := heap()

	st := p.Stats()
	want := int64(perDrain * (warm + drains) * int(NumSubsystems))
	if st.Processed != want || st.TotalDropped() != 0 {
		t.Fatalf("processed %d points with %d ring drops, want %d and 0", st.Processed, st.TotalDropped(), want)
	}
	assertDeliveryIdentity(t, st, sink.Rows())
	// Keeping even 8 bytes per point would show as 4 MB.
	const slack = 1 << 20
	if after > before+slack {
		t.Fatalf("heap grew %d bytes over %d drains (%d -> %d): something still keeps every point",
			after-before, drains, before, after)
	}
}
