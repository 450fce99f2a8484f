package tscout

import (
	"fmt"
	"sync"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

// This file is the end-to-end invariant harness for the marker → codegen →
// Collector → ring → Processor pipeline (ISSUE 2 tentpole, part 3). The
// load-bearing invariant is the accounting identity
//
//	submitted == points + dropped_ring + dropped_queue + dropped_shape
//
// where points is the training points produced (and, with a healthy sink,
// delivered — see assertDeliveryIdentity), dropped_ring is ring-buffer
// overwrite, dropped_queue is user-queue overflow, and
// dropped_shape is samples the Processor drained but could not decode.
// Every sample a probe ever offered must be in exactly one of those
// buckets once the rings are fully drained — a leak in either direction
// means the self-observability stats (which drive §3.2 feedback) lie.

// deployInvariant builds a deployment with an explicit pipeline shape.
func deployInvariant(t *testing.T, mode Mode, seed int64, ringCap, par int) (*TScout, *kernel.Kernel, *Marker, *Marker) {
	t.Helper()
	k := kernel.New(sim.LargeHW, seed, 0)
	ts := New(k, Config{
		Mode:                     mode,
		RingCapacity:             ringCap,
		Seed:                     seed,
		ProcessorParallelism:     par,
		DisableProcessorFeedback: true,
		ProcessorSink:            &recordingBatchSink{},
	})
	scan := ts.MustRegisterOU(OUDef{
		ID: testOUSeqScan, Name: "seq_scan", Subsystem: SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_bytes"},
	}, ResourceSet{CPU: true, Memory: true, Disk: true})
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

// checkKernelIdentity asserts the accounting identity for every kernel
// subsystem shard after the rings have been fully drained, and returns the
// total ring drops so callers can assert the workload exercised overflow.
func checkKernelIdentity(t *testing.T, ts *TScout) int64 {
	t.Helper()
	st := ts.Processor().Stats()
	var totalDropped int64
	for _, sub := range AllSubsystems {
		col := ts.CollectorFor(sub)
		if col == nil {
			continue
		}
		rs := col.Ring.Stats()
		if rs.Pending != 0 {
			t.Fatalf("%s: ring still holds %d samples after final drain", sub, rs.Pending)
		}
		ks := st.Kernel[sub]
		// Non-fused samples produce exactly one point each, so the
		// identity is 1:1 per subsystem.
		if rs.Submitted != ks.Points+rs.Dropped+ks.DecodeErrors+ks.CorruptDiscards {
			t.Fatalf("%s identity violated: submitted %d != points %d + dropped %d + decode errors %d + corrupt %d",
				sub, rs.Submitted, ks.Points, rs.Dropped, ks.DecodeErrors, ks.CorruptDiscards)
		}
		if ks.Drained != rs.Submitted-rs.Dropped {
			t.Fatalf("%s: drained %d, submitted %d, dropped %d", sub, ks.Drained, rs.Submitted, rs.Dropped)
		}
		if ks.DecodeErrors != 0 {
			t.Fatalf("%s: Collector emitted %d undecodable samples", sub, ks.DecodeErrors)
		}
		if ks.CorruptDiscards != 0 {
			t.Fatalf("%s: fault-free workload produced %d corrupt-metric discards", sub, ks.CorruptDiscards)
		}
		totalDropped += rs.Dropped
	}
	assertDeliveryIdentity(t, st, sinkOf(ts).Rows())
	return totalDropped
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
				ts, k, scan, wal := deployInvariant(t, KernelContinuous, seed, 8, par)
				p := ts.Processor()

				iv := k.NewInterleaver(seed)
				for ti := 0; ti < 3; ti++ {
					ti := ti
					task := k.NewTask(fmt.Sprintf("worker%d", ti))
					iv.Add(fmt.Sprintf("worker%d", ti), 40, func(i int) {
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
				iv.Add("drain", 15, func(int) { p.Drain(DrainOptions{Budget: 3}) })
				iv.Run()
				p.Drain(DrainOptions{}) // unbudgeted sweep: empty the rings

				dropped := checkKernelIdentity(t, ts)
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
			ts, k, scan, wal := deployInvariant(t, UserContinuous, 9, 0, par)
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
	ts, k, scan, _ := deployInvariant(t, UserContinuous, 9, 0, 1)
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

// TestConcurrentDrainKeepsRingOrder drains concurrently with live
// submitters (real goroutines, real races for the -race build) and then
// checks the ordering contract of the sink stream: points leave in ring
// order, so each worker's samples arrive in the order it produced them,
// every point arrives exactly once, and the accounting identities hold.
func TestConcurrentDrainKeepsRingOrder(t *testing.T) {
	ts, k, scan, wal := deployInvariant(t, KernelContinuous, 11, 64, 2)
	p := ts.Processor()

	const workers, iters = 4, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			task := k.NewTask(fmt.Sprintf("worker%d", w))
			for i := 0; i < iters; i++ {
				m := scan
				if (w+i)%3 == 0 {
					m = wal
				}
				runOU(ts, task, m,
					sim.Work{Instructions: 5000, BytesTouched: 2048, AllocBytes: 64},
					uint64(i), uint64(w))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for draining := true; draining; {
		select {
		case <-done:
			draining = false
		default:
			p.Drain(DrainOptions{Budget: 32})
		}
	}
	p.Drain(DrainOptions{})

	checkWorkerOrder(t, ts)
	checkKernelIdentity(t, ts)
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
