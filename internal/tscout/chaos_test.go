package tscout

import (
	"fmt"
	"math/rand"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

// This file is the chaos harness: the full marker → Collector → ring →
// Processor pipeline driven under seeded fault schedules (dropped and
// duplicated marker deliveries, mid-OU kills, migrations, counter
// wraparound, ring-overflow bursts) at drain parallelism 1, 2, and 4.
// After the rings are fully drained and every task has exited, two exact
// accounting identities must hold per kernel subsystem:
//
//	begins    == submitted + BeginWithoutEnd + TornMigration + StaleReaped
//	submitted == points + ring drops + decode errors + corrupt discards
//
// and a third for the Processor as a whole, since the sink is the only
// place a point is kept:
//
//	processed == sink rows + SinkRetryDrops + PendingRetry
//
// Every BEGIN the kernel delivered ends in exactly one bucket; every
// submitted sample and every produced point ends in exactly one bucket. No
// loss is silent, no loss is double-counted — under any fault schedule in
// the corpus.

// chaosSeeds are the seed-corpus fault schedules the chaos tests run under;
// FuzzFaultSchedule seeds its corpus from the same values.
var chaosSeeds = []int64{1, 7, 42, 1337}

// chaosConfig sizes one chaos run.
type chaosConfig struct {
	seed     int64
	par      int // drain-thread parallelism
	ous      int // workload OU cycles
	faults   int // faults in the generated plan
	numCPUs  int
	ringCap  int  // small, so overflow bursts actually overflow
	drainEvr int  // budgeted drain every N cycles
	compile  bool // run the Collectors through the JIT
	workers  int  // workload tasks (default 3)
	// plan overrides the generated fault schedule; nil keeps the seeded
	// GenFaultPlan schedule.
	plan kernel.FaultPlan
}

// runChaos drives one seeded chaos run to quiescence and returns the
// deployment for assertions.
func runChaos(tb testing.TB, cfg chaosConfig) (*TScout, *kernel.FaultInjector) {
	tb.Helper()
	k := kernel.New(sim.LargeHW, cfg.seed, 0)
	k.SetNumCPUs(cfg.numCPUs)
	plan := cfg.plan
	if plan == nil {
		plan = kernel.GenFaultPlan(cfg.seed, cfg.faults, int64(3*cfg.ous), cfg.numCPUs)
	}
	fi := kernel.NewFaultInjector(plan)
	k.SetFaultInjector(fi)

	ts := New(k, Config{
		Seed:                     cfg.seed,
		RingCapacity:             cfg.ringCap,
		ProcessorParallelism:     cfg.par,
		DisableProcessorFeedback: true,
		CompileCollectors:        cfg.compile,
		ProcessorSink:            &recordingBatchSink{},
	})
	scan := ts.MustRegisterOU(OUDef{
		ID: testOUSeqScan, Name: "seq_scan", Subsystem: SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_bytes"},
	}, ResourceSet{CPU: true, Disk: true})
	wal := ts.MustRegisterOU(OUDef{
		ID: testOUWAL, Name: "log_serialize", Subsystem: SubsystemLogSerializer,
		Features: []string{"num_records", "bytes"},
	}, ResourceSet{CPU: true, Disk: true})
	if err := ts.Deploy(); err != nil {
		tb.Fatalf("deploy: %v", err)
	}
	ts.Sampler().SetAllRates(100)
	p := ts.Processor()

	rng := rand.New(rand.NewSource(cfg.seed * 31))
	// An explicit worker count pins the tasks round-robin across the CPUs
	// (deterministic coverage of every per-CPU hit counter); the default 3
	// workers keep the original corpus schedules byte-for-byte.
	tasks := make([]*kernel.Task, 3)
	if cfg.workers > 0 {
		tasks = make([]*kernel.Task, cfg.workers)
	}
	for i := range tasks {
		if cfg.workers > 0 {
			tasks[i] = k.NewTaskOn(fmt.Sprintf("w%d", i), i%cfg.numCPUs)
		} else {
			tasks[i] = k.NewTask(fmt.Sprintf("w%d", i))
		}
	}
	markers := []*Marker{scan, wal}

	for i := 0; i < cfg.ous; i++ {
		task := tasks[rng.Intn(len(tasks))]
		m := markers[rng.Intn(len(markers))]
		runOU(ts, task, m, sim.Work{Instructions: float64(500 + rng.Intn(2000))},
			uint64(rng.Intn(100)), uint64(rng.Intn(8)))

		if fi.TakePendingKill() {
			// Kill a task mid-OU: BEGIN lands, END and FEATURES never do.
			vi := rng.Intn(len(tasks))
			v := tasks[vi]
			ts.BeginEvent(v, SubsystemExecutionEngine)
			scan.Begin(v)
			k.ExitTask(v)
			// Respawn (recycling the pid) and warm the fresh task up
			// before its first marker.
			nt := k.NewTask("respawn")
			nt.Charge(sim.Work{Instructions: 200})
			tasks[vi] = nt
		}
		if n := fi.TakePendingBurst(); n > 0 {
			// Ring-overflow burst: a spurt of OUs with no drain between
			// them, overwhelming the small per-CPU rings.
			bt := tasks[rng.Intn(len(tasks))]
			for j := 0; j < n*cfg.ringCap; j++ {
				runOU(ts, bt, scan, sim.Work{Instructions: 100}, uint64(j), 1)
			}
		}
		if cfg.drainEvr > 0 && i%cfg.drainEvr == cfg.drainEvr-1 {
			p.Drain(DrainOptions{Budget: 8})
		}
	}

	// Quiesce: every task exits (so mid-OU leftovers become reapable),
	// then unbudgeted drains empty the rings and run the reaper.
	for _, task := range tasks {
		k.ExitTask(task)
	}
	for i := 0; i < 3; i++ {
		p.Drain(DrainOptions{})
	}
	return ts, fi
}

// assertChaosIdentities checks the exact accounting identities against the
// run's recording sink and returns the total orphan count.
func assertChaosIdentities(tb testing.TB, ts *TScout) OrphanCounts {
	tb.Helper()
	st := ts.Processor().Stats()
	sink := sinkOf(ts)
	var orphans OrphanCounts
	for _, sub := range AllSubsystems {
		col := ts.CollectorFor(sub)
		if col == nil {
			continue
		}
		rs := col.Ring.Stats()
		if rs.Pending != 0 {
			tb.Fatalf("%s: ring still holds %d samples after quiescence", sub, rs.Pending)
		}
		ks := st.Kernel[sub]
		begins := ts.subsystems[sub].beginTP.Hits.Load()
		// Identity 1: every delivered BEGIN is submitted, orphaned, or
		// faulted. EndWithoutBegin is excluded — those ENDs have no BEGIN
		// to account. A BEGIN whose program faults pushes no entry, so the
		// per-program fault counter (which Attach used to discard) is the
		// bucket that keeps the identity exact.
		inFlight := ks.Orphans.BeginWithoutEnd + ks.Orphans.TornMigration + ks.Orphans.StaleReaped
		if begins != rs.Submitted+inFlight+col.Begin.RuntimeFaults() {
			tb.Fatalf("%s begin identity: %d begins != %d submitted + %d orphaned (%+v) + %d faulted",
				sub, begins, rs.Submitted, inFlight, ks.Orphans, col.Begin.RuntimeFaults())
		}
		// Verified Collector programs must never fault at runtime — on
		// either execution engine. Nonzero here is a verifier or JIT bug.
		if ks.RuntimeFaults != 0 {
			tb.Fatalf("%s: %d runtime faults from verified programs (jit=%+v)",
				sub, ks.RuntimeFaults, st.JIT[sub])
		}
		// Identity 2: every submitted sample became a point or is counted lost.
		if rs.Submitted != ks.Points+rs.Dropped+ks.DecodeErrors+ks.CorruptDiscards {
			tb.Fatalf("%s submit identity: submitted %d != points %d + dropped %d + decode %d + corrupt %d",
				sub, rs.Submitted, ks.Points, rs.Dropped, ks.DecodeErrors, ks.CorruptDiscards)
		}
		if ks.DecodeErrors != 0 {
			tb.Fatalf("%s: Collector emitted %d undecodable samples", sub, ks.DecodeErrors)
		}
		orphans.Add(ks.Orphans)

		// The healthy sink received every point of the subsystem, and none
		// carries a cross-CPU base offset or wrapped delta: that corruption
		// must have been torn/discarded upstream.
		pts := sink.pointsFor(sub)
		if int64(len(pts)) != ks.Points {
			tb.Fatalf("%s: sink holds %d points, stats say %d", sub, len(pts), ks.Points)
		}
		for _, tp := range pts {
			if tp.Metrics.Cycles >= 1<<40 || tp.Metrics.Instructions >= 1<<40 {
				tb.Fatalf("%s: corrupt sample reached the sink: %+v", sub, tp.Metrics)
			}
		}
	}

	// Identity 3: every produced point is in the sink or in a counted
	// delivery bucket.
	assertDeliveryIdentity(tb, st, sink.Rows())
	return orphans
}

// TestChaosPipelineIdentity runs every seed-corpus fault schedule at drain
// parallelism 1, 2, and 4 and asserts the exact accounting identities.
func TestChaosPipelineIdentity(t *testing.T) {
	for _, seed := range chaosSeeds {
		for _, par := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("seed=%d/threads=%d", seed, par), func(t *testing.T) {
				ts, fi := runChaos(t, chaosConfig{
					seed: seed, par: par, ous: 400, faults: 48,
					numCPUs: 4, ringCap: 16, drainEvr: 25,
				})
				orphans := assertChaosIdentities(t, ts)
				// The schedule must actually have exercised faults, and the
				// fault classes must be visible in the orphan accounting.
				if fi.Hits() == 0 {
					t.Fatalf("fault injector never saw a marker hit")
				}
				if fi.Applied(kernel.FaultKillTask) > 0 && orphans.StaleReaped == 0 {
					t.Fatalf("kills injected but no StaleReaped orphans")
				}
				var applied int64
				for k := kernel.FaultKind(0); k < kernel.FaultKind(6); k++ {
					applied += fi.Applied(k)
				}
				if applied == 0 {
					t.Fatalf("no faults applied by schedule seed=%d", seed)
				}
			})
		}
	}
}

// TestChaosPipelineIdentityCompiled re-runs the seed-corpus schedules with
// the Collectors JIT-compiled: the identities (including zero runtime
// faults) must hold on the native path exactly as on the interpreter, and
// the run must actually have dispatched to compiled code.
func TestChaosPipelineIdentityCompiled(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ts, _ := runChaos(t, chaosConfig{
				seed: seed, par: 2, ous: 400, faults: 48,
				numCPUs: 4, ringCap: 16, drainEvr: 25, compile: true,
			})
			assertChaosIdentities(t, ts)
			st := ts.Processor().Stats()
			if st.TotalCompiledPrograms() == 0 {
				t.Fatalf("compiled chaos run never JIT-compiled a program: %+v", st.JIT)
			}
			var native int64
			for _, sub := range AllSubsystems {
				js := st.JIT[sub]
				native += js.Begin.CompiledRuns + js.End.CompiledRuns + js.Features.CompiledRuns
			}
			if native == 0 {
				t.Fatalf("compiled programs exist but no marker hit dispatched natively: %+v", st.JIT)
			}
		})
	}
}

// TestChaosCleanScheduleBaseline: the chaos driver with an empty fault plan
// must produce zero orphans — the harness itself injects no loss.
func TestChaosCleanScheduleBaseline(t *testing.T) {
	ts, _ := runChaos(t, chaosConfig{
		seed: 3, par: 2, ous: 200, faults: 0,
		numCPUs: 2, ringCap: 4096, drainEvr: 0,
	})
	orphans := assertChaosIdentities(t, ts)
	if got := orphans.Total(); got != 0 {
		t.Fatalf("fault-free chaos run produced %d orphans: %+v", got, orphans)
	}
	st := ts.Processor().Stats()
	if st.TotalCorruptDiscards() != 0 {
		t.Fatalf("fault-free run discarded %d samples as corrupt", st.TotalCorruptDiscards())
	}
}

// TestChaosEveryFaultClassAt8CPUs isolates one fault class at a time on an
// 8-CPU kernel with eight pinned workers, delivering every fault through
// the per-CPU hit counters (OnCPU != 0) so the schedule is a function of
// each CPU's own marker stream. The exact loss identities must hold for
// every class, and the class must demonstrably have fired.
func TestChaosEveryFaultClassAt8CPUs(t *testing.T) {
	const numCPUs = 8
	classes := []kernel.FaultKind{
		kernel.FaultDropMarker, kernel.FaultDupMarker, kernel.FaultMigrate,
		kernel.FaultKillTask, kernel.FaultCounterWrap, kernel.FaultRingBurst,
	}
	for _, class := range classes {
		t.Run(class.String(), func(t *testing.T) {
			var plan kernel.FaultPlan
			for cpu := 0; cpu < numCPUs; cpu++ {
				for _, hit := range []int64{2, 9, 23} {
					f := kernel.Fault{Kind: class, AtHit: hit, OnCPU: cpu + 1}
					if class == kernel.FaultMigrate {
						f.CPU = (cpu + 3) % numCPUs
					}
					if class == kernel.FaultRingBurst {
						f.Count = 2
					}
					plan = append(plan, f)
				}
			}
			ts, fi := runChaos(t, chaosConfig{
				seed: 99, par: 4, ous: 600, numCPUs: numCPUs,
				ringCap: 16, drainEvr: 25, workers: numCPUs, plan: plan,
			})
			orphans := assertChaosIdentities(t, ts)
			if fi.Applied(class) == 0 {
				t.Fatalf("%v: planned on every CPU but never applied", class)
			}
			if class == kernel.FaultKillTask && orphans.StaleReaped == 0 {
				t.Fatalf("kills applied but no StaleReaped orphans")
			}
			// Stationary fault classes leave the workers pinned, so every
			// CPU's hit counter must have advanced past the first planned
			// delivery. (Migrations and kill/respawn move tasks off their
			// home CPUs, so coverage there is not guaranteed per CPU.)
			if class != kernel.FaultMigrate && class != kernel.FaultKillTask {
				for cpu := 0; cpu < numCPUs; cpu++ {
					if fi.CPUHits(cpu) <= 2 {
						t.Fatalf("%v: cpu %d saw only %d hits — per-CPU delivery untested",
							class, cpu, fi.CPUHits(cpu))
					}
				}
			}
		})
	}
}

// FuzzFaultSchedule feeds arbitrary (seed, fault-count, parallelism)
// triples through the chaos driver: whatever schedule GenFaultPlan
// produces, the accounting identities must hold exactly.
func FuzzFaultSchedule(f *testing.F) {
	for _, seed := range chaosSeeds {
		f.Add(seed, uint8(24), uint8(1))
	}
	f.Add(int64(-9), uint8(0), uint8(2))
	f.Add(int64(123456789), uint8(255), uint8(3))
	// Crashers and near-misses from multi-CPU fuzzing sessions: seeds that
	// land on 7- and 8-CPU kernels with dense schedules, a negative seed
	// whose kill/respawn cadence recycles pids across CPU homes, and a
	// burst-heavy schedule at full parallelism.
	f.Add(int64(15), uint8(96), uint8(3))       // 8 CPUs, dense mixed plan
	f.Add(int64(-1048577), uint8(64), uint8(0)) // negative seed, pid recycling
	f.Add(int64(7777774), uint8(192), uint8(3)) // 7 CPUs, burst-heavy
	f.Add(int64(6), uint8(255), uint8(2))       // 7 CPUs, saturated plan
	f.Fuzz(func(t *testing.T, seed int64, faults, parSel uint8) {
		ts, _ := runChaos(t, chaosConfig{
			seed: seed, par: 1 + int(parSel%4), ous: 120, faults: int(faults),
			numCPUs: 1 + int(uint64(seed)%8), ringCap: 16, drainEvr: 20,
			// Half the schedules run the JIT so the fuzzer exercises both
			// execution engines under the same fault corpus.
			compile: seed%2 != 0,
		})
		assertChaosIdentities(t, ts)
	})
}
