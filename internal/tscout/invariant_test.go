package tscout

import (
	"fmt"
	"reflect"
	"testing"

	"tscout/internal/sim"
)

// This file holds the pipeline's accounting identities — every sample a
// probe offered, and every point the Processor produced, is in exactly one
// bucket once the rings are drained; a leak in either direction means the
// self-observability stats that drive §3.2 feedback lie — and the
// fault-free workloads that exercise them on the kernel and user paths.

// CheckLossIdentities asserts, once every task has exited and the rings are
// fully drained, that no loss is silent and none is counted twice
// (DESIGN.md §8): every ring is empty and each CPU ring's submitted ==
// drained + dropped, summing to its subsystem's ring and to Stats().Rings;
// per subsystem
//
//	begins    == submitted + BeginWithoutEnd + TornMigration + StaleReaped + BEGIN runtime faults
//	submitted == points + ring drops + decode errors + corrupt discards
//	drained   == submitted - ring drops
//
// with no decode errors and no runtime faults from the verified Collectors;
// and for the Processor, processed == sink rows + SinkRetryDrops +
// PendingRetry. It returns the orphans of every subsystem. The chaos
// harness (package tscout_test) calls it after every run.
func CheckLossIdentities(tb testing.TB, ts *TScout) OrphanCounts {
	tb.Helper()
	st := ts.Processor().Stats()
	var orphans OrphanCounts
	for _, sub := range AllSubsystems {
		col := ts.CollectorFor(sub)
		if col == nil {
			continue
		}
		agg, perCPU := col.Ring.Stats(), col.Ring.CPUStats()
		var sumSub, sumDrained, sumDropped int64
		for cpu, rs := range perCPU {
			if rs.Pending != 0 {
				tb.Fatalf("%s cpu%d: ring still holds %d samples after the final drain", sub, cpu, rs.Pending)
			}
			if rs.Submitted != rs.Drained+rs.Dropped {
				tb.Fatalf("%s cpu%d ring identity: submitted %d != drained %d + dropped %d",
					sub, cpu, rs.Submitted, rs.Drained, rs.Dropped)
			}
			sumSub += rs.Submitted
			sumDrained += rs.Drained
			sumDropped += rs.Dropped
		}
		if sumSub != agg.Submitted || sumDrained != agg.Drained || sumDropped != agg.Dropped {
			tb.Fatalf("%s: per-ring sums (%d/%d/%d) disagree with aggregate (%d/%d/%d)",
				sub, sumSub, sumDrained, sumDropped, agg.Submitted, agg.Drained, agg.Dropped)
		}
		if !reflect.DeepEqual(st.Rings[sub], perCPU) {
			tb.Fatalf("%s: Stats().Rings disagrees with Ring.CPUStats()", sub)
		}

		ks := st.Kernel[sub]
		// A BEGIN whose program faults pushes no entry, so the program's
		// fault counter is the bucket that keeps this exact. EndWithoutBegin
		// is not a term: those ENDs have no BEGIN to account.
		begins := ts.subsystems[sub].beginTP.Hits
		inFlight := ks.Orphans.BeginWithoutEnd + ks.Orphans.TornMigration + ks.Orphans.StaleReaped
		if begins != agg.Submitted+inFlight+col.Begin.RuntimeFaults() {
			tb.Fatalf("%s begin identity: %d begins != %d submitted + %d orphaned (%+v) + %d faulted",
				sub, begins, agg.Submitted, inFlight, ks.Orphans, col.Begin.RuntimeFaults())
		}
		if agg.Submitted != ks.Points+agg.Dropped+ks.DecodeErrors+ks.CorruptDiscards {
			tb.Fatalf("%s submit identity: submitted %d != points %d + dropped %d + decode %d + corrupt %d",
				sub, agg.Submitted, ks.Points, agg.Dropped, ks.DecodeErrors, ks.CorruptDiscards)
		}
		if ks.Drained != agg.Submitted-agg.Dropped {
			tb.Fatalf("%s: drained %d, submitted %d, dropped %d", sub, ks.Drained, agg.Submitted, agg.Dropped)
		}
		if ks.DecodeErrors != 0 {
			tb.Fatalf("%s: Collector emitted %d undecodable samples", sub, ks.DecodeErrors)
		}
		// Nonzero here is a verifier or JIT bug, on either engine.
		if ks.RuntimeFaults != 0 {
			tb.Fatalf("%s: %d runtime faults from verified programs (jit=%+v)", sub, ks.RuntimeFaults, st.JIT[sub])
		}
		orphans.Add(ks.Orphans)
	}
	assertDeliveryIdentity(tb, st, ts.Processor().sink.Rows())
	return orphans
}

// checkFaultFree holds a run with no injected faults to the loss identities
// and to losing samples only to ring overwrite: no orphan, no corrupt
// discard. It returns the ring drops.
func checkFaultFree(t *testing.T, ts *TScout) int64 {
	t.Helper()
	if o := CheckLossIdentities(t, ts); o.Total() != 0 {
		t.Fatalf("fault-free workload orphaned OUs: %+v", o)
	}
	st := ts.Processor().Stats()
	if n := st.TotalCorruptDiscards(); n != 0 {
		t.Fatalf("fault-free workload produced %d corrupt-metric discards", n)
	}
	return st.TotalDropped()
}

// TestPipelineAccountingIdentity drives seeded randomized marker workloads
// from several tasks, interleaved with budgeted drains under a
// deterministic schedule, across three drain-thread configurations. The
// tiny ring forces real overwrite drops, and feature widths straddle the
// declared OU width so pad/truncate repairs run too.
func TestPipelineAccountingIdentity(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("threads=%d/seed=%d", par, seed), func(t *testing.T) {
				ts, k, scan, wal := deployPerCPU(t, KernelContinuous, seed, 1, 8, par)
				p := ts.Processor()

				iv := k.NewInterleaver(seed)
				for ti := 0; ti < 3; ti++ {
					ti := ti
					task := k.NewTask(fmt.Sprintf("worker%d", ti))
					iv.AddOn(fmt.Sprintf("worker%d", ti), 0, 40, func(i int) {
						h := uint64(seed)*2654435761 + uint64(ti)*1099511628211 + uint64(i)*2246822519
						h ^= h >> 13
						m := scan
						if h%3 == 0 {
							m = wal
						}
						feats := make([]uint64, h%5) // declared width is 2
						for j := range feats {
							feats[j] = h >> uint(j)
						}
						w := sim.Work{
							Instructions:    float64(1000 + h%100000),
							BytesTouched:    float64(h % 65536),
							WorkingSetBytes: float64(1 + h%(1<<20)),
							AllocBytes:      int64(h % 4096),
						}
						runOU(ts, task, m, w, feats...)
					})
				}
				// Budgeted drains race the submitters under the same
				// deterministic schedule.
				iv.AddOn("drain", 0, 15, func(int) { p.Drain(DrainOptions{Budget: 3}) })
				iv.Run()
				p.Drain(DrainOptions{}) // unbudgeted sweep: empty the rings

				dropped := checkFaultFree(t, ts)
				if dropped == 0 {
					t.Fatalf("workload never overflowed an 8-slot ring; the dropped_ring term went untested")
				}
				st := p.Stats()
				adj := st.Kernel[SubsystemExecutionEngine].PaddedFeatures +
					st.Kernel[SubsystemExecutionEngine].TruncatedFeatures
				if adj == 0 {
					t.Fatalf("randomized feature widths never triggered a pad/truncate repair")
				}
			})
		}
	}
}

// TestUserQueueAccountingIdentity is the same identity on the user-probe
// path: marker workloads in a user mode plus injected hostile samples, so
// dropped_queue (bounded-queue overflow) and dropped_shape (undecodable
// and unregistered-OU samples) are both nonzero.
func TestUserQueueAccountingIdentity(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("threads=%d", par), func(t *testing.T) {
			ts, k, scan, wal := deployPerCPU(t, UserContinuous, 9, 1, 0, par)
			p := ts.Processor()
			task := k.NewTask("worker")
			for i := 0; i < 300; i++ {
				m := scan
				if i%3 == 0 {
					m = wal
				}
				runOU(ts, task, m, sim.Work{Instructions: 5000, AllocBytes: 32}, uint64(i), 7)
			}
			// Shape rejects: garbage bytes, a hostile fused count, an
			// unregistered OU.
			p.SubmitUserSample([]byte{1, 2, 3})
			p.SubmitUserSample(EncodeSample(FusedOUID, 1, Metrics{}, []uint64{^uint64(0)}))
			p.SubmitUserSample(EncodeSample(999, 1, Metrics{}, nil))
			// Overflow the bounded queue.
			for i := 0; i < userQueueCapacity+100; i++ {
				p.SubmitUserSample(EncodeSample(testOUSeqScan, 1, Metrics{}, []uint64{1, 2}))
			}
			p.Drain(DrainOptions{})

			st := p.Stats()
			if st.User.Submitted != st.User.Drained+st.User.Dropped {
				t.Fatalf("user identity violated: submitted %d != drained %d + dropped %d",
					st.User.Submitted, st.User.Drained, st.User.Dropped)
			}
			if st.User.Drained != st.Processed+st.User.DecodeErrors {
				t.Fatalf("drained %d != points %d + decode errors %d",
					st.User.Drained, st.Processed, st.User.DecodeErrors)
			}
			if st.User.Dropped == 0 {
				t.Fatalf("queue never overflowed; the dropped_queue term went untested")
			}
			if st.User.DecodeErrors != 3 {
				t.Fatalf("expected 3 shape rejects, got %d", st.User.DecodeErrors)
			}
		})
	}
}

// TestUserDeltaDrainedClearsOnIdlePeriod pins that the user queue's
// per-period drain delta is rewritten every period, like DeltaSubmitted and
// DeltaDropped: a period that drains nothing reports zero, not the previous
// period's count.
func TestUserDeltaDrainedClearsOnIdlePeriod(t *testing.T) {
	ts, k, scan, _ := deployPerCPU(t, UserContinuous, 9, 1, 0, 1)
	p := ts.Processor()
	task := k.NewTask("worker")
	for i := 0; i < 20; i++ {
		runOU(ts, task, scan, sim.Work{Instructions: 5000, AllocBytes: 32}, uint64(i), 7)
	}
	p.Drain(DrainOptions{})
	if st := p.Stats(); st.User.DeltaDrained == 0 || st.User.DeltaDrained != st.User.Drained {
		t.Fatalf("busy period: delta drained %d, drained %d", st.User.DeltaDrained, st.User.Drained)
	}
	p.Drain(DrainOptions{})
	if st := p.Stats(); st.User.DeltaDrained != 0 {
		t.Fatalf("idle period still reports delta drained %d", st.User.DeltaDrained)
	}
}

// TestConcurrentDrainKeepsRingOrder interleaves budgeted drains with
// submitters on tasks pinned round-robin to the simulated CPUs, one
// kernel.Interleaver workload per worker on its CPU's lane, on one CPU and
// on eight, and then checks the ordering contract of the sink stream:
// points leave in ring order, so each worker's samples arrive in the order
// it produced them, every point arrives exactly once, the accounting
// identities hold, and the batched path has actually batched.
func TestConcurrentDrainKeepsRingOrder(t *testing.T) {
	for _, c := range []struct{ numCPUs, par int }{{1, 2}, {8, 4}} {
		t.Run(fmt.Sprintf("cpus=%d/threads=%d", c.numCPUs, c.par), func(t *testing.T) {
			ts, k, scan, wal := deployPerCPU(t, KernelContinuous, 21, c.numCPUs, 64, c.par)
			p := ts.Processor()

			const workers, iters = 8, 120
			iv := k.NewInterleaver(21)
			for w := 0; w < workers; w++ {
				task := k.NewTask(fmt.Sprintf("worker%d", w))
				task.Migrate(w % c.numCPUs)
				iv.AddOn(task.Name, w%c.numCPUs, iters, func(i int) {
					m := scan
					if (w+i)%3 == 0 {
						m = wal
					}
					runOU(ts, task, m,
						sim.Work{Instructions: 4000, BytesTouched: 1024, AllocBytes: 64},
						uint64(i), uint64(w))
				})
			}
			iv.AddOn("drain", 0, iters, func(int) { p.Drain(DrainOptions{Budget: 16}) })
			iv.Run()
			p.Drain(DrainOptions{})

			checkWorkerOrder(t, ts)
			checkFaultFree(t, ts)
			var batches int64
			for _, n := range p.Stats().BatchSizeHist {
				batches += n
			}
			if batches == 0 {
				t.Fatalf("no drain batches recorded in the histogram")
			}
		})
	}
}

// checkWorkerOrder asserts the sink stream keeps ring order for workloads
// whose features are (iteration, worker): a worker submits to one ring per
// subsystem, rings drain FIFO, so within a subsystem each worker's
// iterations must reach the sink strictly ascending.
func checkWorkerOrder(t *testing.T, ts *TScout) {
	t.Helper()
	for _, sub := range AllSubsystems {
		last := map[float64]float64{}
		for _, tp := range sinkOf(ts).pointsFor(sub) {
			i, w := tp.Features[0], tp.Features[1]
			if prev, ok := last[w]; ok && i <= prev {
				t.Fatalf("%s: worker %v iteration %v reached the sink after %v", sub, w, i, prev)
			}
			last[w] = i
		}
	}
}
