package tscout

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

// This file tests the per-CPU ring drain path (ISSUE 4): drain-thread ring
// affinity, the per-ring accounting identity, the DrainOptions surface, and
// the batched sink delivery path.

// newPerCPU builds an undeployed TScout in the given mode over a kernel with
// an explicit simulated CPU count, with the given per-CPU ring capacity and
// drain parallelism and a recording sink.
func newPerCPU(mode Mode, seed int64, numCPUs, ringCap, par int) (*TScout, *kernel.Kernel) {
	k := kernel.New(sim.LargeHW, seed, 0)
	k.SetNumCPUs(numCPUs)
	return New(k, Config{
		Mode:                     mode,
		RingCapacity:             ringCap,
		Seed:                     seed,
		ProcessorParallelism:     par,
		DisableProcessorFeedback: true,
		ProcessorSink:            &recordingBatchSink{},
	}), k
}

// deployPerCPU deploys newPerCPU's rig with the two test OUs at full
// sampling.
func deployPerCPU(t *testing.T, mode Mode, seed int64, numCPUs, ringCap, par int) (*TScout, *kernel.Kernel, *Marker, *Marker) {
	t.Helper()
	ts, k := newPerCPU(mode, seed, numCPUs, ringCap, par)
	scan := ts.MustRegisterOU(OUDef{
		ID: testOUSeqScan, Name: "seq_scan", Subsystem: SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_bytes"},
	}, ResourceSet{CPU: true, Disk: true})
	wal := ts.MustRegisterOU(OUDef{
		ID: testOUWAL, Name: "log_serialize", Subsystem: SubsystemLogSerializer,
		Features: []string{"num_records", "bytes"},
	}, ResourceSet{CPU: true, Disk: true})
	if err := ts.Deploy(); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	ts.Sampler().SetAllRates(100)
	return ts, k, scan, wal
}

// deployEverySubsystem registers one two-feature OU per subsystem on
// newPerCPU's rig, deploys it, and returns a canned sample for each.
func deployEverySubsystem(tb testing.TB, ts *TScout) [NumSubsystems][]byte {
	tb.Helper()
	var payloads [NumSubsystems][]byte
	for i, sub := range AllSubsystems {
		ts.MustRegisterOU(OUDef{
			ID: OUID(50 + i), Name: sub.String() + "_ou", Subsystem: sub,
			Features: []string{"a", "b"},
		}, ResourceSet{CPU: true})
		payloads[sub] = EncodeSample(OUID(50+i), 1, Metrics{ElapsedNS: 5}, []uint64{1, 2})
	}
	if err := ts.Deploy(); err != nil {
		tb.Fatal(err)
	}
	return payloads
}

// drainDelta runs one Drain and returns what it did, as the difference of
// the Stats snapshots either side of it: samples drained, non-empty kernel
// ring batches and training points produced.
func drainDelta(p *Processor, opts DrainOptions) (drained, batches, points int64) {
	before := p.Stats()
	p.Drain(opts)
	after := p.Stats()
	for b := range after.BatchSizeHist {
		batches += after.BatchSizeHist[b] - before.BatchSizeHist[b]
	}
	return after.TotalDrained() - before.TotalDrained(), batches, after.Processed - before.Processed
}

// TestRingAffinityDisjoint pins the affinity contract: for every (CPU
// count, parallelism) combination, each ring is owned by exactly one drain
// thread, every thread's set is disjoint from every other's, and ownership
// balances to within one ring.
func TestRingAffinityDisjoint(t *testing.T) {
	for _, numCPUs := range []int{1, 2, 3, 8, 40} {
		for _, par := range []int{1, 2, 3, 4, 8} {
			numRings := numCPUs * int(NumSubsystems)
			owned := make([][]int, par)
			for g := 0; g < numRings; g++ {
				owner := ringOwner(g, par)
				if owner < 0 || owner >= par {
					t.Fatalf("cpus=%d par=%d: ring %d owned by out-of-range thread %d",
						numCPUs, par, g, owner)
				}
				owned[owner] = append(owned[owner], g)
			}
			total, min, max := 0, numRings+1, -1
			for _, set := range owned {
				total += len(set)
				if len(set) < min {
					min = len(set)
				}
				if len(set) > max {
					max = len(set)
				}
			}
			if total != numRings {
				t.Fatalf("cpus=%d par=%d: threads own %d rings, want %d (partition broken)",
					numCPUs, par, total, numRings)
			}
			if par <= numRings && max-min > 1 {
				t.Fatalf("cpus=%d par=%d: ownership imbalanced (min %d, max %d)",
					numCPUs, par, min, max)
			}
		}
	}

	// subsystem-major layout: a subsystem's rings on different CPUs must
	// land on different threads whenever parallelism allows, otherwise
	// per-CPU rings would serialize behind one drain thread again.
	for _, par := range []int{2, 4} {
		owners := map[int]bool{}
		for cpu := 0; cpu < 8; cpu++ {
			owners[ringOwner(globalRingIndex(cpu, SubsystemExecutionEngine, 8), par)] = true
		}
		if len(owners) != par {
			t.Fatalf("par=%d: execution-engine rings across 8 CPUs use %d threads, want %d",
				par, len(owners), par)
		}
	}
}

// TestPerCPUAccountingIdentity drives a seeded multi-task workload whose
// tasks land on (and migrate across) different simulated CPUs, interleaved
// with budgeted per-ring-capped drains under a deterministic schedule, at
// 1/2/4 drain threads. After a final sweep, the accounting identity must
// hold on every individual CPU ring, the rings must sum to the shard
// aggregates, and the whole run must be bit-identical when repeated.
func TestPerCPUAccountingIdentity(t *testing.T) {
	const numCPUs = 4
	for _, par := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("threads=%d", par), func(t *testing.T) {
			seed := int64(100 + par)
			run := func() (ProcessorStats, []TrainingPoint) {
				ts, k, scan, wal := deployPerCPU(t, KernelContinuous, seed, numCPUs, 8, par)
				p := ts.Processor()

				iv := k.NewInterleaver(seed)
				for ti := 0; ti < 6; ti++ {
					ti := ti
					task := k.NewTask(fmt.Sprintf("worker%d", ti))
					iv.AddOn(fmt.Sprintf("worker%d", ti), 0, 40, func(i int) {
						h := uint64(seed)*2654435761 + uint64(ti)*1099511628211 + uint64(i)*2246822519
						h ^= h >> 13
						if h%7 == 0 {
							task.Migrate(int(h>>3) % numCPUs)
						}
						m := scan
						if h%3 == 0 {
							m = wal
						}
						runOU(ts, task, m, sim.Work{
							Instructions: float64(1000 + h%50000),
							AllocBytes:   int64(h % 2048),
						}, h, h>>7)
					})
				}
				iv.AddOn("drain", 0, 15, func(int) {
					p.Drain(DrainOptions{Budget: 3})
				})
				iv.Run()
				p.Drain(DrainOptions{}) // final sweep: empty every ring

				dropped := checkFaultFree(t, ts)
				if dropped == 0 {
					t.Fatalf("workload never overflowed an 8-slot per-CPU ring")
				}

				// Routing must actually spread: the execution engine is hit
				// by every task, so more than one of its CPU rings saw
				// submissions.
				active := 0
				for _, rs := range ts.CollectorFor(SubsystemExecutionEngine).Ring.AppendCPUStats(nil) {
					if rs.Submitted > 0 {
						active++
					}
				}
				if active < 2 {
					t.Fatalf("submissions landed on %d execution-engine rings; per-CPU routing is not spreading", active)
				}
				return p.Stats(), sinkOf(ts).points()
			}

			st1, pts1 := run()
			st2, pts2 := run()
			if !reflect.DeepEqual(st1, st2) {
				t.Fatalf("stats differ across identical seeded runs:\n%+v\n%+v", st1, st2)
			}
			// Drain concatenates the workers' points in global ring order:
			// the sink stream is deterministic at every drain parallelism,
			// not just the point multiset.
			if !reflect.DeepEqual(pts1, pts2) {
				t.Fatalf("sink streams differ across identical seeded runs")
			}
		})
	}
}

// TestDrainBatchHistogram pins, with hand-placed ring contents, that a
// budgeted cycle waterfills its tokens over the individual CPU rings, that
// the final unbudgeted sweep takes everything left, and that the batch-size
// histogram buckets what each cycle actually drained from each ring.
func TestDrainBatchHistogram(t *testing.T) {
	const numCPUs = 4
	ts, _, _, _ := deployPerCPU(t, KernelContinuous, 5, numCPUs, 16, 2)
	p := ts.Processor()
	ring := ts.CollectorFor(SubsystemExecutionEngine).Ring
	for cpu := 0; cpu < numCPUs; cpu++ {
		for i := 0; i < 10; i++ {
			ring.SubmitFrom(cpu, EncodeSample(testOUSeqScan, 1, Metrics{ElapsedNS: 5}, []uint64{1, 2}))
		}
	}

	// Budget 6 × 2 threads against a demand of 40 degrades to 6 tokens: 3
	// per thread, split 2+1 over the two rings each thread owns.
	if drained, batches, points := drainDelta(p, DrainOptions{Budget: 6}); drained != 6 || batches != 4 || points != 6 {
		t.Fatalf("budgeted drain: drained %d in %d batches, %d points; want 6, 4, 6", drained, batches, points)
	}
	for cpu, rs := range ring.AppendCPUStats(nil) {
		if want := 2 - cpu/2; rs.Drained != int64(want) || rs.Pending != 10-want {
			t.Fatalf("cpu%d after budgeted drain: drained %d pending %d, want %d/%d",
				cpu, rs.Drained, rs.Pending, want, 10-want)
		}
	}

	// The final unbudgeted sweep takes the rest of all four rings.
	if drained, batches, _ := drainDelta(p, DrainOptions{}); batches != 4 || drained != 34 {
		t.Fatalf("final drain: drained %d in %d batches; want 34 in 4", drained, batches)
	}

	// Histogram: two 1-sample and two 2-sample batches, then four batches
	// of 8 or 9 ("5-16").
	st := p.Stats()
	want := [BatchHistBuckets]int64{2, 2, 4, 0, 0, 0}
	if st.BatchSizeHist != want {
		t.Fatalf("batch histogram = %v, want %v", st.BatchSizeHist, want)
	}
}

// fillRings hand-places perRing samples on every CPU ring of the two test
// OUs' subsystems, numbering them in Features[0] from next upwards in global
// ring order (subsystem-major, then CPU, then submission), and returns the
// next unused number.
func fillRings(ts *TScout, numCPUs, perRing int, next uint64) uint64 {
	for _, ou := range []struct {
		id  OUID
		sub SubsystemID
	}{{testOUSeqScan, SubsystemExecutionEngine}, {testOUWAL, SubsystemLogSerializer}} {
		ring := ts.CollectorFor(ou.sub).Ring
		for cpu := 0; cpu < numCPUs; cpu++ {
			for i := 0; i < perRing; i++ {
				ring.SubmitFrom(cpu, EncodeSample(ou.id, 1, Metrics{ElapsedNS: 5}, []uint64{next, 2}))
				next++
			}
		}
	}
	return next
}

// TestUnbudgetedDrainDeliversTail is the regression test for the dropped
// tail: one unbudgeted Drain over rings holding more than 8192 samples (the
// capacity of the flush queue that used to sit between Drain and the sink,
// which silently discarded the excess of any single drain) delivers every
// point, in ring order, at any drain parallelism.
func TestUnbudgetedDrainDeliversTail(t *testing.T) {
	const numCPUs, perRing = 2, 3100 // 4 rings: 12 400 samples in one drain
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("threads=%d", par), func(t *testing.T) {
			ts, _, _, _ := deployPerCPU(t, KernelContinuous, 9, numCPUs, 4096, par)
			total := int64(fillRings(ts, numCPUs, perRing, 0))
			p := ts.Processor()
			if _, _, points := drainDelta(p, DrainOptions{}); points != total {
				t.Fatalf("drain produced %d points from %d samples", points, total)
			}

			st, sink := p.Stats(), sinkOf(ts)
			if st.Processed != total || sink.Rows() != total || st.TotalDropped() != 0 {
				t.Fatalf("processed %d, sink rows %d, ring drops %d; want %d, %d, 0",
					st.Processed, sink.Rows(), st.TotalDropped(), total, total)
			}
			assertDeliveryIdentity(t, st, sink.Rows())
			for i, tp := range sink.points() {
				if tp.Features[0] != float64(i) {
					t.Fatalf("sink position %d holds sample %v: delivery is not in ring order", i, tp.Features[0])
				}
			}
		})
	}
}

// TestBatchSinkFastPath checks every point is delivered through WriteBatch
// with whole drained batches (not one-element wraps), and that a batch
// error is charged against every point in the failed batch.
func TestBatchSinkFastPath(t *testing.T) {
	sink := &recordingBatchSink{}
	k := kernel.New(sim.LargeHW, 3, 0)
	k.SetNumCPUs(2)
	ts := New(k, Config{Seed: 3, ProcessorSink: sink, DisableProcessorFeedback: true})
	scan := ts.MustRegisterOU(OUDef{
		ID: testOUSeqScan, Name: "seq_scan", Subsystem: SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_bytes"},
	}, ResourceSet{CPU: true})
	if err := ts.Deploy(); err != nil {
		t.Fatal(err)
	}
	ts.Sampler().SetAllRates(100)
	task := k.NewTask("worker")
	for i := 0; i < 20; i++ {
		runOU(ts, task, scan, sim.Work{Instructions: 1000}, uint64(i), 2)
	}
	p := ts.Processor()
	p.Drain(DrainOptions{})

	batched, calls := len(sink.pts), sink.batchCalls
	if calls == 0 || int64(batched) != p.Stats().Processed {
		t.Fatalf("batched delivery: %d points over %d calls, want all %d points",
			batched, calls, p.Stats().Processed)
	}
	if calls >= batched {
		t.Fatalf("%d calls for %d points: flushes are not batched", calls, batched)
	}

	// A failing WriteBatch counts against every point in the batch.
	sink.failBatches = true
	for i := 0; i < 5; i++ {
		runOU(ts, task, scan, sim.Work{Instructions: 1000}, uint64(i), 2)
	}
	p.Drain(DrainOptions{})
	failed := sink.pointsInFail
	if failed == 0 {
		t.Fatalf("failing sink never saw a batch")
	}
	if got := p.Stats().Kernel[SubsystemExecutionEngine].SinkErrors; got != int64(failed) {
		t.Fatalf("SinkErrors = %d, want %d (one per point in failed batches)", got, failed)
	}
}

// TestDrainAllocationsPerDrain is the drain's allocation contract: a drain
// allocates nothing. Everything it uses (the ring snapshots, the demand,
// allocation and charge tables, the waterfill, the ring batch the rings
// lend their samples to, and the point and feature slices the sink
// borrows) is Processor scratch. 2 000 samples over
// the 32 rings of an 8-CPU deployment, two drain threads, a Processor warmed
// until the ring slots and its scratch have reached their working size, a
// sink that keeps nothing; the budgeted arm's tokens cover every sample, so
// both arms drain the same points and the budgeted one runs the waterfill.
func TestDrainAllocationsPerDrain(t *testing.T) {
	const numCPUs, samples, perDrain = 8, 2000, 0
	for _, arm := range []struct {
		name string
		opts DrainOptions
	}{
		{"unbudgeted", DrainOptions{}},
		{"budgeted", DrainOptions{Budget: samples}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			ts, _ := newPerCPU(KernelContinuous, 7, numCPUs, 64, 2)
			sinkOf(ts).discard = true
			payloads := deployEverySubsystem(t, ts)
			p := ts.Processor()
			numRings := numCPUs * int(NumSubsystems)
			fill := func() {
				for i := 0; i < samples; i++ {
					g := i % numRings
					sub := SubsystemID(g / numCPUs)
					ts.CollectorFor(sub).Ring.SubmitFrom(g%numCPUs, payloads[sub])
				}
			}
			for i := 0; i < 3; i++ {
				fill() // 63 samples a ring a cycle: every 64-slot ring has wrapped
				if _, batches, points := drainDelta(p, arm.opts); points != samples || batches != int64(numRings) {
					t.Fatalf("drain: %d points in %d batches, want %d in %d", points, batches, samples, numRings)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				fill()
				p.Drain(arm.opts)
			})
			if allocs > perDrain {
				t.Fatalf("a drain of %d ring batches allocates %.1f times, want <= %d",
					numRings, allocs, perDrain)
			}
			t.Logf("drain allocations: %.1f for %d ring batches", allocs, numRings)
		})
	}
}

// TestDrainRunsOnCaller pins where a drain's work runs: on its caller's
// goroutine at every drain parallelism — the modeled threads are a
// virtual-time construct, and the host spawns nothing. A splitter sees the
// stack it is called on: a fused sample on a user mode's ring takes it there.
func TestDrainRunsOnCaller(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		k := kernel.New(sim.LargeHW, 3, 0)
		ts := New(k, Config{Mode: UserContinuous, Seed: 5, ProcessorParallelism: par})
		ts.MustRegisterOU(OUDef{
			ID: testOUSeqScan, Name: "seq_scan", Subsystem: SubsystemExecutionEngine,
			Features: []string{"num_rows", "row_bytes"},
		}, ResourceSet{CPU: true})
		if err := ts.Deploy(); err != nil {
			t.Fatal(err)
		}
		p := ts.Processor()
		var stack string
		p.SetSplitter(func(OUID, []float64) float64 {
			buf := make([]byte, 1<<14)
			stack = string(buf[:runtime.Stack(buf, false)])
			return 1
		})
		words, err := EncodeFusedFeatures([]FusedPart{{OU: testOUSeqScan, Features: []uint64{1, 2}}})
		if err != nil {
			t.Fatal(err)
		}
		ts.CollectorFor(SubsystemExecutionEngine).Ring.SubmitFrom(0, EncodeSample(FusedOUID, 1, Metrics{ElapsedNS: 5}, words))
		if _, _, points := drainDelta(p, DrainOptions{}); points != 1 {
			t.Fatalf("threads=%d: drain produced %d points, want 1", par, points)
		}
		// The test's own frame, not the splitter closure's ".func1".
		if !strings.Contains(stack, "TestDrainRunsOnCaller(") {
			t.Fatalf("threads=%d: the drain did not run on the caller's goroutine\n%s", par, stack)
		}
	}
}

// BenchmarkDrainPerCPUvsSingle measures the host cost of the drain with
// one simulated CPU ("single": one ring per subsystem) versus eight
// ("percpu-8": 32 rings in all), at 1/2/4 modeled drain threads. Each
// iteration submits a fixed batch of samples into every subsystem's rings,
// round-robin over the CPUs, with the timer stopped, then times one
// unbudgeted drain. The metric is drained samples per wall-clock second of
// draining. Drain threads are a virtual-time construct, so they do not
// scale it: what it compares is the per-ring cost of a pass (more, smaller
// batches with eight CPUs) and the small per-thread bookkeeping of the
// waterfill and the charges. CHANGES.md records the table.
func BenchmarkDrainPerCPUvsSingle(b *testing.B) {
	run := func(b *testing.B, numCPUs, threads int) {
		ts, _ := newPerCPU(KernelContinuous, 1, numCPUs, 1024, threads)
		sinkOf(ts).discard = true
		payloads := deployEverySubsystem(b, ts)
		ts.Sampler().SetAllRates(100)
		p := ts.Processor()

		// One 1024-slot ring's worth per subsystem: nothing is overwritten
		// even on one CPU.
		const perSub = 1024
		start := p.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for _, sub := range AllSubsystems {
				ring := ts.CollectorFor(sub).Ring
				for j := 0; j < perSub; j++ {
					ring.SubmitFrom(j%numCPUs, payloads[sub])
				}
			}
			b.StartTimer()
			p.Drain(DrainOptions{})
		}
		end := p.Stats()
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(end.TotalDrained()-start.TotalDrained())/sec, "drained/s")
		}
	}
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("single/threads=%d", threads), func(b *testing.B) { run(b, 1, threads) })
		b.Run(fmt.Sprintf("percpu-8/threads=%d", threads), func(b *testing.B) { run(b, 8, threads) })
	}
}
