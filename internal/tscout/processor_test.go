package tscout

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"tscout/internal/bpf"
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

// TestResetClearsPipelineState: Reset must clear the ring counters and the
// per-period baselines, not just the point counters — stale baselines would
// poison the first post-reset feedback and demand computation.
func TestResetClearsPipelineState(t *testing.T) {
	ts, ous := newShardedDeployment(t, Config{Seed: 6, RingCapacity: 64})
	p := ts.Processor()

	// Overflow a ring so Submitted and Dropped are both nonzero.
	submitKernel(ts, SubsystemNetworking, ous[SubsystemNetworking], 64+10)
	submitKernel(ts, SubsystemExecutionEngine, ous[SubsystemExecutionEngine], 30)
	p.Drain(DrainOptions{})
	if st := p.Stats(); st.TotalSubmitted() == 0 || st.TotalDropped() == 0 || st.Processed == 0 {
		t.Fatalf("setup did not exercise the pipeline: %+v", st)
	}

	p.Reset()
	if got := p.Stats().Processed; got != 0 {
		t.Fatalf("Processed after Reset = %d", got)
	}
	st := p.Stats()
	if st.TotalSubmitted() != 0 || st.TotalDropped() != 0 || st.Polls != 0 {
		t.Fatalf("stats not cleared by Reset: %+v", st)
	}

	// The first post-reset period must compute its ring deltas from zero,
	// not from the pre-reset cumulative counters (which would yield
	// negative deltas and suppress the demand calculation).
	submitKernel(ts, SubsystemExecutionEngine, ous[SubsystemExecutionEngine], 20)
	p.Drain(DrainOptions{Budget: 100})
	st = p.Stats()
	ee := st.Kernel[SubsystemExecutionEngine]
	if ee.Submitted != 20 || ee.Drained != 20 {
		t.Fatalf("post-reset period wrong: %+v", ee)
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
		d := st.Kernel[sub].Drained
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
			drained += st.Kernel[sub].Drained
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

// TestUserQueueDrainPenalty: in a user mode every sample costs
// userDrainPenalty budget tokens, so a budgeted poll retrieves roughly
// budget/penalty of them — the §6.2 reason user modes plateau early.
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
	ring := ts.CollectorFor(SubsystemExecutionEngine).Ring
	for i := 0; i < 20; i++ {
		ring.SubmitFrom(0, EncodeSample(70, 3, Metrics{}, []uint64{1, 2}))
	}
	// Demand (20 samples × 3 tokens = 60) fits the budget: everything
	// drains, but the 90 tokens bought only 30 samples' worth of work.
	const budget = 90
	if _, _, n := drainDelta(p, DrainOptions{Budget: budget}); n != 20 {
		t.Fatalf("underloaded poll drained %d user samples, want all 20", n)
	}

	// Overload: the ring holds far more than one period's worth. The
	// effective budget degrades and each retrieval still costs penalty
	// tokens, so the period gets effective/penalty samples — not the
	// budget/penalty a healthy period would, and nowhere near the 90
	// kernel samples the same tokens would buy.
	for i := 0; i < 300; i++ {
		ring.SubmitFrom(0, EncodeSample(70, 3, Metrics{}, []uint64{1, 2}))
	}
	_, _, n := drainDelta(p, DrainOptions{Budget: budget})
	st := p.Stats()
	if st.EffectiveBudget >= budget {
		t.Fatalf("no degradation under overload: %+v", st)
	}
	if want := int64(st.EffectiveBudget / userDrainPenalty); n != want {
		t.Fatalf("drained %d user samples, want effective %d / penalty %d = %d",
			n, st.EffectiveBudget, userDrainPenalty, want)
	}
	// The drain thread was charged penalty samples' worth per sample.
	before := p.taskGroup().Task(0).Now()
	if _, _, n = drainDelta(p, DrainOptions{Budget: 3}); n != 1 {
		t.Fatalf("a 3-token poll drained %d samples, want 1", n)
	}
	if spent := p.taskGroup().Task(0).Now() - before; spent < pollBaseNS+userDrainPenalty*processSampleNS*9/10 {
		t.Fatalf("one user-mode sample cost the drain thread %d ns, want about %d", spent, pollBaseNS+userDrainPenalty*processSampleNS)
	}
}

// reentrantSink calls back into the pipeline from inside WriteBatch: it
// reads stats, submits a sample to a ring, and re-polls; until p is set it
// only takes batches. clobbered records whether a batch, its points'
// feature vectors included, changed under it while it was being written.
type reentrantSink struct {
	p         *Processor
	ring      *bpf.PerCPURing
	repolled  bool
	writes    int
	clobbered bool
}

func (s *reentrantSink) WriteBatch(pts []TrainingPoint) error {
	if s.p == nil {
		return nil
	}
	before := slices.Clone(pts)
	for i := range before {
		before[i].Features = slices.Clone(pts[i].Features) // DeepEqual then sees a vector rewritten in place
	}
	defer func() { s.clobbered = s.clobbered || !reflect.DeepEqual(before, pts) }()
	for _, tp := range pts {
		s.writes++
		_ = s.p.Stats().Processed
		_ = s.p.Stats()
		// Features unlike any in the batch: a nested drain that decoded
		// into the batch's vectors would change them.
		s.ring.Submit(EncodeSample(tp.OU, tp.PID, Metrics{}, []uint64{uint64(100 + s.writes), 7}))
		if !s.repolled {
			s.repolled = true
			s.p.Drain(DrainOptions{})
		}
	}
	return nil
}

func (s *reentrantSink) Flush() error { return nil }
func (s *reentrantSink) Rows() int64  { return int64(s.writes) }

// TestReentrantSinkDoesNotDeadlock: the sink re-enters the Processor
// (stats, submissions, even a nested Poll) from WriteBatch, and the
// samples it submits are drained later.
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
	// A first drain leaves the Processor its point and feature slices, which
	// the drain below must take off it while the sink has them.
	submitKernel(ts, SubsystemExecutionEngine, 71, 20)
	p.Drain(DrainOptions{})
	sink.p, sink.ring = p, ts.CollectorFor(SubsystemExecutionEngine).Ring
	submitKernel(ts, SubsystemExecutionEngine, 71, 20)
	p.Drain(DrainOptions{})
	if sink.writes == 0 {
		t.Fatalf("sink never invoked")
	}
	// The drain the sink started decoded into a point slice and feature
	// vectors of its own.
	if !sink.repolled || sink.clobbered {
		t.Fatalf("re-polled %v, and the batch being written changed under the sink: %v", sink.repolled, sink.clobbered)
	}
	// The samples the sink itself submitted drain on a later poll.
	p.Drain(DrainOptions{})
	if got := p.Stats().Kernel[SubsystemExecutionEngine].Drained; got <= 40 {
		t.Fatalf("re-entrant submissions lost: %d drained", got)
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

// TestFusedDiscardCountsNoRepairs: a fused sample whose later part names an
// unregistered OU is discarded whole, as one decode error, and the repair
// its earlier, short part would have needed is not counted.
func TestFusedDiscardCountsNoRepairs(t *testing.T) {
	ts, _, _, _ := deployPerCPU(t, KernelContinuous, 5, 1, 128, 1)
	words, err := EncodeFusedFeatures([]FusedPart{
		{OU: testOUSeqScan, Features: []uint64{7}}, // short: would be padded
		{OU: 999, Features: []uint64{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := SubsystemExecutionEngine
	ts.CollectorFor(sub).Ring.Submit(EncodeSample(FusedOUID, 1, Metrics{ElapsedNS: 5}, words))
	p := ts.Processor()
	p.Drain(DrainOptions{})
	ks := p.Stats().Kernel[sub]
	if ks.DecodeErrors != 1 || ks.PaddedFeatures != 0 || ks.TruncatedFeatures != 0 || ks.Points != 0 {
		t.Fatalf("discarded fused sample: DecodeErrors=%d PaddedFeatures=%d TruncatedFeatures=%d Points=%d, want 1 0 0 0",
			ks.DecodeErrors, ks.PaddedFeatures, ks.TruncatedFeatures, ks.Points)
	}
}

// TestProcessorConcurrentSubmitPollReset interleaves ring submits on every
// subsystem, budgeted drains, stats reads and resets under seeded
// kernel.Interleaver schedules. Every stats read matches a model of what was
// submitted since the last reset, and after the final drain every ring is
// empty and every sample submitted since the last reset is a point in the
// sink or a counted drop.
func TestProcessorConcurrentSubmitPollReset(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		sink := &recordingBatchSink{}
		ts, ous := newShardedDeployment(t, Config{Seed: 12, RingCapacity: 128, ProcessorParallelism: 2, ProcessorSink: sink})
		p := ts.Processor()

		// Submissions and sink rows since the last Reset.
		var kernelSubmitted [NumSubsystems]int64
		var sinkBase int64
		check := func(what string) {
			st := p.Stats()
			for _, sub := range AllSubsystems {
				if got := st.Kernel[sub].Submitted; got != kernelSubmitted[sub] {
					t.Fatalf("seed %d %s: %s submitted %d, model %d", seed, what, sub, got, kernelSubmitted[sub])
				}
				for cpu, rs := range st.Rings[sub] {
					if rs.Submitted != rs.Drained+rs.Dropped+int64(rs.Pending) {
						t.Fatalf("seed %d %s: %s cpu%d ring %+v", seed, what, sub, cpu, rs)
					}
				}
			}
			assertDeliveryIdentity(t, st, sink.Rows()-sinkBase)
		}

		iv := ts.kernel.NewInterleaver(seed)
		for _, sub := range AllSubsystems {
			iv.AddOn(sub.String(), 0, 2000, func(int) {
				submitKernel(ts, sub, ous[sub], 1)
				kernelSubmitted[sub]++
			})
		}
		iv.AddOn("drain", 0, 500, func(int) { p.Drain(DrainOptions{Budget: 64}) })
		iv.AddOn("stats", 0, 200, func(int) { check("stats") })
		iv.AddOn("reset", 0, 10, func(int) {
			p.Reset()
			kernelSubmitted, sinkBase = [NumSubsystems]int64{}, sink.Rows()
		})
		iv.Run()
		// Final unlimited sweep: everything still buffered comes out.
		p.Drain(DrainOptions{})
		check("final")

		st := p.Stats()
		var kernelDrained, points int64
		for _, sub := range AllSubsystems {
			agg := ts.CollectorFor(sub).Ring.Stats()
			ks := st.Kernel[sub]
			if agg.Pending != 0 || ks.Drained != agg.Submitted-agg.Dropped {
				t.Fatalf("seed %d: %s ring %+v after the final drain, Processor drained %d", seed, sub, agg, ks.Drained)
			}
			kernelDrained += ks.Drained
			points += ks.Points
		}
		if points != st.Processed || st.Processed != kernelDrained {
			t.Fatalf("seed %d: points %d, processed %d, drained %d",
				seed, points, st.Processed, kernelDrained)
		}
		if st.TotalDropped() == 0 {
			t.Fatalf("seed %d: no ring overflowed; the drop term went untested", seed)
		}
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

// TestWaterfillProperties holds waterfill to its contract on seeded random
// demands and tokens: it hands out min(tokens, Σdemand), no shard gets less
// than nothing or more than it asked for, a shard left short of its demand
// gets at least every other shard's allocation less one (max-min fairness),
// and the result does not depend on what alloc held: every case reuses one
// scratch that still holds the previous case's allocation.
func TestWaterfillProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	scratch := make([]int, 16)
	for c := 0; c < 5000; c++ {
		demands := make([]int, 1+rng.Intn(len(scratch)))
		sum := 0
		for i := range demands {
			switch rng.Intn(4) {
			case 0: // an idle shard
			case 1:
				demands[i] = rng.Intn(3)
			default:
				demands[i] = rng.Intn(300)
			}
			sum += demands[i]
		}
		tokens := rng.Intn(sum+len(demands)+2) - 1
		fresh := make([]int, len(demands))
		waterfill(fresh, demands, tokens)
		alloc := scratch[:len(demands)]
		waterfill(alloc, demands, tokens)

		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("case %d, demands %v, tokens %d, alloc %v: %s", c, demands, tokens, alloc, fmt.Sprintf(format, args...))
		}
		given := 0
		for i, a := range alloc {
			if a != fresh[i] {
				fail("a reused alloc gave shard %d %d, a fresh one %d", i, a, fresh[i])
			}
			if a < 0 || a > demands[i] {
				fail("shard %d got %d of its demand %d", i, a, demands[i])
			}
			given += a
		}
		if want := max(min(tokens, sum), 0); given != want {
			fail("handed out %d tokens, want %d", given, want)
		}
		for i, a := range alloc {
			if a == demands[i] {
				continue
			}
			for j, b := range alloc {
				if a < b-1 {
					fail("shard %d is short (%d of %d) but got %d, less than shard %d's %d - 1", i, a, demands[i], a, j, b)
				}
			}
		}
	}
}

// TestDrainScratchBounded pins what a Processor keeps after an unbudgeted
// sweep of full rings (FinalDrain's shape): scratch bounded by the ring
// count, by one ring's capacity and by maxKeptPoints points and their
// vectors, however many samples the sweep drained.
func TestDrainScratchBounded(t *testing.T) {
	const numCPUs, ringCap, par = 4, 256, 2
	ts, _ := newPerCPU(KernelContinuous, 7, numCPUs, ringCap, par)
	sinkOf(ts).discard = true
	payloads := deployEverySubsystem(t, ts)
	p := ts.Processor()
	numRings := numCPUs * int(NumSubsystems)
	for _, sub := range AllSubsystems {
		for cpu := 0; cpu < numCPUs; cpu++ {
			for i := 0; i < 2*ringCap; i++ { // every ring full, half of it overwritten
				ts.CollectorFor(sub).Ring.SubmitFrom(cpu, payloads[sub])
			}
		}
	}
	drained, _, _ := drainDelta(p, DrainOptions{})
	if drained != int64(numRings*ringCap) {
		t.Fatalf("the sweep drained %d samples, want every ring's %d", drained, numRings*ringCap)
	}

	tables := map[string]int{
		"demands": cap(p.demands), "alloc": cap(p.alloc), "dem": cap(p.dem), "share": cap(p.share),
		"charged": cap(p.charged),
	}
	for _, sub := range AllSubsystems {
		tables["cpuNow."+sub.String()] = cap(p.cpuNow[sub])
	}
	for name, n := range tables {
		if n > numRings {
			t.Errorf("%s keeps %d entries after the sweep, more than the %d rings", name, n, numRings)
		}
	}
	// A ring batch grows by append, so allow it twice one ring's capacity:
	// the sweep itself was numRings times that. It holds one lent slice a
	// sample and no bytes of its own; its list is bpf's, read here through
	// reflection.
	if n := reflect.ValueOf(&p.batch).Elem().FieldByName("samples").Cap(); n > 2*ringCap {
		t.Errorf("the ring batch keeps a list of %d samples, more than twice a ring's %d", n, ringCap)
	}
	// Two features a sample: a poll's feature slice holds maxKeptPoints
	// vectors of two places.
	if n := cap(p.features); n > 2*maxKeptPoints {
		t.Errorf("the feature slice keeps %d places, more than %d", n, 2*maxKeptPoints)
	}
	if n := cap(p.pts); n > maxKeptPoints {
		t.Errorf("the point slice keeps %d points after a sweep of %d, more than %d", n, drained, maxKeptPoints)
	}
}
