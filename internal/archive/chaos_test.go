package archive

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
	"tscout/internal/tscout"
)

// This file re-runs the chaos harness with the columnar segment writer
// mounted as the Processor's sink: seeded fault schedules (drops, dups,
// migrations, kills, counter wrap, ring bursts) at drain parallelism 1, 2,
// and 4. The tscout package proves the pipeline's loss identities over a
// slice-backed sink; here the same identities must hold with the segment
// sink attached, and the segments — the only copy of the points — must
// verify and hold exactly the rows the Processor's counters say it
// produced, per subsystem.

// runChaosWithSink drives one seeded fault schedule through a deployment
// whose Processor drains into a segment Writer, using only exported tscout
// APIs (this package cannot see the pipeline's internals).
func runChaosWithSink(tb testing.TB, seed int64, par int) (*tscout.TScout, *kernel.Kernel, *Writer, *bytes.Buffer) {
	tb.Helper()
	const (
		numCPUs = 4
		ringCap = 16
		ous     = 400
		faults  = 48
	)
	k := kernel.New(sim.LargeHW, seed, 0)
	k.SetNumCPUs(numCPUs)
	fi := kernel.NewFaultInjector(kernel.GenFaultPlan(seed, faults, int64(3*ous), numCPUs))
	k.SetFaultInjector(fi)

	var buf bytes.Buffer
	aw := NewWriterSize(&buf, 64) // small segments: many seal boundaries

	ts := tscout.New(k, tscout.Config{
		Seed:                     seed,
		RingCapacity:             ringCap,
		ProcessorParallelism:     par,
		DisableProcessorFeedback: true,
		ProcessorSink:            aw,
	})
	scan := ts.MustRegisterOU(tscout.OUDef{
		ID: 1, Name: "seq_scan", Subsystem: tscout.SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_bytes"},
	}, tscout.ResourceSet{CPU: true, Disk: true})
	wal := ts.MustRegisterOU(tscout.OUDef{
		ID: 9, Name: "log_serialize", Subsystem: tscout.SubsystemLogSerializer,
		Features: []string{"num_records", "bytes"},
	}, tscout.ResourceSet{CPU: true, Disk: true})
	if err := ts.Deploy(); err != nil {
		tb.Fatalf("deploy: %v", err)
	}
	ts.Sampler().SetAllRates(100)
	p := ts.Processor()

	cycle := func(task *kernel.Task, m *tscout.Marker, w sim.Work, feats ...uint64) {
		ts.BeginEvent(task, m.OU().Subsystem)
		m.Begin(task)
		task.Charge(w)
		m.End(task)
		m.Features(task, w.AllocBytes, feats...)
	}

	rng := rand.New(rand.NewSource(seed * 31))
	tasks := make([]*kernel.Task, 3)
	for i := range tasks {
		tasks[i] = k.NewTask(fmt.Sprintf("w%d", i))
	}
	markers := []*tscout.Marker{scan, wal}
	for i := 0; i < ous; i++ {
		task := tasks[rng.Intn(len(tasks))]
		m := markers[rng.Intn(len(markers))]
		cycle(task, m, sim.Work{Instructions: float64(500 + rng.Intn(2000))},
			uint64(rng.Intn(100)), uint64(rng.Intn(8)))

		if fi.TakePendingKill() {
			vi := rng.Intn(len(tasks))
			v := tasks[vi]
			ts.BeginEvent(v, tscout.SubsystemExecutionEngine)
			scan.Begin(v)
			k.ExitTask(v)
			nt := k.NewTask("respawn")
			nt.Charge(sim.Work{Instructions: 200})
			tasks[vi] = nt
		}
		if n := fi.TakePendingBurst(); n > 0 {
			bt := tasks[rng.Intn(len(tasks))]
			for j := 0; j < n*ringCap; j++ {
				cycle(bt, scan, sim.Work{Instructions: 100}, uint64(j), 1)
			}
		}
		if i%25 == 24 {
			p.Drain(tscout.DrainOptions{Budget: 8})
		}
	}
	for _, task := range tasks {
		k.ExitTask(task)
	}
	for i := 0; i < 3; i++ {
		p.Drain(tscout.DrainOptions{})
	}
	return ts, k, aw, &buf
}

// TestChaosIdentitiesWithSegmentSink asserts, for every seed-corpus fault
// schedule at drain parallelism 1, 2, and 4:
//
//	begins    == submitted + BeginWithoutEnd + TornMigration + StaleReaped + runtime faults
//	submitted == points + ring drops + decode errors + corrupt discards
//
// and that the segment archive captured exactly the surviving points:
//
//	processed == archive rows   (no delivery loss: healthy sink, no queue drops)
func TestChaosIdentitiesWithSegmentSink(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		for _, par := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("seed=%d/threads=%d", seed, par), func(t *testing.T) {
				ts, k, aw, buf := runChaosWithSink(t, seed, par)
				p := ts.Processor()
				st := p.Stats()

				for _, sub := range tscout.AllSubsystems {
					col := ts.CollectorFor(sub)
					if col == nil {
						continue
					}
					rs := col.Ring.Stats()
					if rs.Pending != 0 {
						t.Fatalf("%s: ring holds %d samples after quiescence", sub, rs.Pending)
					}
					ks := st.Kernel[sub]
					begins := k.Tracepoint("tscout/" + sub.String() + "/begin").Hits.Load()
					inFlight := ks.Orphans.BeginWithoutEnd + ks.Orphans.TornMigration + ks.Orphans.StaleReaped
					if begins != rs.Submitted+inFlight+col.Begin.RuntimeFaults() {
						t.Fatalf("%s begin identity: %d begins != %d submitted + %d orphaned + %d faulted",
							sub, begins, rs.Submitted, inFlight, col.Begin.RuntimeFaults())
					}
					if rs.Submitted != ks.Points+rs.Dropped+ks.DecodeErrors+ks.CorruptDiscards {
						t.Fatalf("%s submit identity: submitted %d != points %d + dropped %d + decode %d + corrupt %d",
							sub, rs.Submitted, ks.Points, rs.Dropped, ks.DecodeErrors, ks.CorruptDiscards)
					}
				}

				// The sink must have received every produced point: it never
				// erred, so segment rows == Processed, subsystem by subsystem.
				if st.SinkRetryDrops != 0 || st.PendingRetry != 0 {
					t.Fatalf("sink deliveries lost or parked: retryDrops=%d pendingRetry=%d",
						st.SinkRetryDrops, st.PendingRetry)
				}
				if err := aw.Flush(); err != nil {
					t.Fatal(err)
				}
				r, err := NewReader(buf.Bytes())
				if err != nil {
					t.Fatalf("segment archive unreadable after chaos: %v", err)
				}
				if err := r.Verify(); err != nil {
					t.Fatalf("segment archive fails deep verify after chaos: %v", err)
				}
				if r.NumRows() != st.Processed {
					t.Fatalf("archive has %d rows, Processor produced %d points", r.NumRows(), st.Processed)
				}
				got, err := r.Points()
				if err != nil {
					t.Fatal(err)
				}
				var perSub [tscout.NumSubsystems]int64
				for _, tp := range got {
					perSub[tp.Subsystem]++
				}
				for _, sub := range tscout.AllSubsystems {
					if perSub[sub] != st.Kernel[sub].Points {
						t.Fatalf("%s: archive holds %d rows, stats say %d points", sub, perSub[sub], st.Kernel[sub].Points)
					}
				}
			})
		}
	}
}
