package tscout_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/autopilot"
	"tscout/internal/kernel"
	"tscout/internal/sim"
	"tscout/internal/tscout"
)

// This file is the chaos harness: the marker → Collector → ring → Processor
// → archive pipeline, over exported API only, under seeded fault schedules
// (dropped and duplicated deliveries, mid-OU kills, migrations, counter
// wraparound, ring-overflow bursts). runChaos drives a scenario to quiescence
// and holds it to tscout.CheckLossIdentities and the archive to the points
// delivered; what else a scenario must show stays with the test running it.

// chaosSeeds are the seed-corpus fault schedules; FuzzFaultSchedule seeds
// its corpus from the same values.
var chaosSeeds = []int64{1, 7, 42, 1337}

// chaosConfig is one row of the scenario table.
type chaosConfig struct {
	name      string
	seed      int64
	par       int // drain-thread parallelism
	numCPUs   int
	ous       int  // workload OU cycles
	faults    int  // faults in the seeded plan
	ringCap   int  // small, so overflow bursts actually overflow
	drainEvr  int  // budgeted drain every N cycles; 0 = none
	jit       bool // run the Collectors through the JIT
	autopilot bool // tick a controller after every drain
	refuse    bool // the sink refuses every fifth delivery
	workers   int  // tasks pinned round-robin over the CPUs; 0 = three unpinned
	// plan overrides the seeded GenFaultPlan schedule.
	plan kernel.FaultPlan
	// pin, when set, is the census the run must reproduce exactly.
	pin chaosPin
}

// standard is the seed-corpus scenario: 400 OU cycles from three tasks, 48
// seeded faults, 16-slot rings and a budgeted drain every 25 cycles.
func standard(name string, seed int64, par, numCPUs int) chaosConfig {
	return chaosConfig{name: name, seed: seed, par: par, numCPUs: numCPUs,
		ous: 400, faults: 48, ringCap: 16, drainEvr: 25}
}

// chaosPin is a run's fault and loss census.
type chaosPin struct {
	applied   [kernel.FaultRingBurst + 1]int64 // by FaultKind
	orphans   tscout.OrphanCounts
	points    int64
	ringDrops int64
}

// oneCPU pins the standard scenario of each chaos seed at NumCPUs 1 and
// drain parallelism 2, as recorded when faults could still index one
// injector-wide hit counter. At one CPU that counter is CPU 0's, so the
// per-CPU index must reproduce every value.
var oneCPU = map[int64]chaosPin{
	1: {applied: [6]int64{3, 11, 7, 9, 8, 10}, points: 131, ringDrops: 1129,
		orphans: tscout.OrphanCounts{BeginWithoutEnd: 5, EndWithoutBegin: 1, StaleReaped: 5}},
	7: {applied: [6]int64{3, 8, 12, 8, 8, 9}, points: 130, ringDrops: 886,
		orphans: tscout.OrphanCounts{BeginWithoutEnd: 8, EndWithoutBegin: 1, StaleReaped: 5}},
	42: {applied: [6]int64{6, 7, 10, 7, 8, 10}, points: 131, ringDrops: 1107,
		orphans: tscout.OrphanCounts{BeginWithoutEnd: 7, EndWithoutBegin: 3, StaleReaped: 3}},
	1337: {applied: [6]int64{9, 2, 9, 8, 9, 11}, points: 131, ringDrops: 1157,
		orphans: tscout.OrphanCounts{BeginWithoutEnd: 7, EndWithoutBegin: 1, StaleReaped: 3}},
}

// chaosRun is what a scenario's own expectations inspect.
type chaosRun struct {
	ts      *tscout.TScout
	fi      *kernel.FaultInjector
	ctrl    *autopilot.Controller
	orphans tscout.OrphanCounts
	parked  int // the most points the sink retry queue held after a drain
}

func (r chaosRun) census() chaosPin {
	st := r.ts.Processor().Stats()
	p := chaosPin{orphans: r.orphans, points: st.Processed, ringDrops: st.TotalDropped()}
	for k := range p.applied {
		p.applied[k] = r.fi.Applied(kernel.FaultKind(k))
	}
	return p
}

// refusingSink refuses every fifth delivery before it reaches the archive,
// so the Processor's retry queue fills and drains while faults fly.
type refusingSink struct {
	*archive.Writer
	calls int
}

func (s *refusingSink) WriteBatch(pts []tscout.TrainingPoint) error {
	if s.calls++; s.calls%5 == 0 {
		return errors.New("delivery refused")
	}
	return s.Writer.WriteBatch(pts)
}

// runChaos drives one scenario to quiescence, checks the loss identities
// and, as the subtest "archive", the archive, and returns the run.
func runChaos(t *testing.T, cfg chaosConfig) chaosRun {
	t.Helper()
	k := kernel.New(sim.LargeHW, cfg.seed, 0)
	k.SetNumCPUs(cfg.numCPUs)
	plan := cfg.plan
	if plan == nil {
		plan = kernel.GenFaultPlan(cfg.seed, cfg.faults, int64(3*cfg.ous/cfg.numCPUs), cfg.numCPUs)
	}
	fi := kernel.NewFaultInjector(k, plan)

	var buf bytes.Buffer
	aw := archive.NewWriterSize(&buf, 64) // small segments: many seal boundaries
	var sink tscout.Sink = aw
	if cfg.refuse {
		sink = &refusingSink{Writer: aw}
	}
	ts := tscout.New(k, tscout.Config{
		Seed:                     cfg.seed,
		RingCapacity:             cfg.ringCap,
		ProcessorParallelism:     cfg.par,
		DisableProcessorFeedback: true,
		CompileCollectors:        cfg.jit,
		ProcessorSink:            sink,
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
		t.Fatalf("deploy: %v", err)
	}
	ts.Sampler().SetAllRates(100)
	p := ts.Processor()
	var ctrl *autopilot.Controller
	if cfg.autopilot {
		// Converge at once and never declare drift: every tick halves the
		// rate toward the floor, so the run sweeps the whole rate range.
		ctrl = autopilot.New(ts, aw, autopilot.Config{
			MinSamples:    1,
			ConvergeRatio: 1e9,
			DriftRatio:    1e12,
		})
	}
	// Every drain leaves each point it produced delivered, parked for
	// retry or counted lost.
	parked := 0
	drain := func(opts tscout.DrainOptions) {
		p.Drain(opts)
		st := p.Stats()
		if st.Processed != sink.Rows()+st.SinkRetryDrops+int64(st.PendingRetry) {
			t.Fatalf("poll %d delivery identity: processed %d != sink rows %d + retry drops %d + pending retry %d",
				st.Polls, st.Processed, sink.Rows(), st.SinkRetryDrops, st.PendingRetry)
		}
		parked = max(parked, st.PendingRetry)
		if ctrl != nil {
			ctrl.Tick()
		}
	}

	// census counts the marker calls made on each CPU, on the CPU the task
	// is on when the call arrives; while every event is sampled, each call is
	// one delivery.
	census := make([]int64, cfg.numCPUs)
	cycle := func(task *kernel.Task, m *tscout.Marker, w sim.Work, feats ...uint64) {
		ts.BeginEvent(task, m.OU().Subsystem)
		census[task.CPU()]++
		m.Begin(task)
		task.Charge(w)
		census[task.CPU()]++
		m.End(task)
		census[task.CPU()]++
		m.Features(task, w.AllocBytes, feats...)
	}

	rng := rand.New(rand.NewSource(cfg.seed * 31))
	tasks := make([]*kernel.Task, max(cfg.workers, 3))
	for i := range tasks {
		if cfg.workers > 0 {
			tasks[i] = k.NewTaskOn(fmt.Sprintf("w%d", i), i%cfg.numCPUs)
		} else {
			tasks[i] = k.NewTask(fmt.Sprintf("w%d", i))
		}
	}
	markers := []*tscout.Marker{scan, wal}
	for i := 0; i < cfg.ous; i++ {
		task := tasks[rng.Intn(len(tasks))]
		m := markers[rng.Intn(len(markers))]
		cycle(task, m, sim.Work{Instructions: float64(500 + rng.Intn(2000))},
			uint64(rng.Intn(100)), uint64(rng.Intn(8)))

		if fi.TakePendingKill() {
			// Kill a task mid-OU: BEGIN lands, END and FEATURES never do.
			// The respawn recycles the pid and warms up before its marker.
			vi := rng.Intn(len(tasks))
			v := tasks[vi]
			ts.BeginEvent(v, tscout.SubsystemExecutionEngine)
			census[v.CPU()]++
			scan.Begin(v)
			k.ExitTask(v)
			nt := k.NewTask("respawn")
			nt.Charge(sim.Work{Instructions: 200})
			tasks[vi] = nt
		}
		if n := fi.TakePendingBurst(); n > 0 {
			// Ring-overflow burst: a spurt of OUs with no drain between
			// them, overwhelming the small per-CPU rings.
			bt := tasks[rng.Intn(len(tasks))]
			for j := 0; j < n*cfg.ringCap; j++ {
				cycle(bt, scan, sim.Work{Instructions: 100}, uint64(j), 1)
			}
		}
		if cfg.drainEvr > 0 && i%cfg.drainEvr == cfg.drainEvr-1 {
			drain(tscout.DrainOptions{Budget: 8})
		}
		if ctrl != nil && i == cfg.ous/2 {
			// Mid-run hardware change: everything bursts back to 100%
			// while the fault schedule keeps running.
			ctrl.NoteHardwareChange()
		}
	}

	// Quiesce: every task exits (so mid-OU leftovers become reapable), then
	// unbudgeted drains empty the rings and run the reaper.
	for _, task := range tasks {
		k.ExitTask(task)
	}
	for i := 0; i < 3; i++ {
		drain(tscout.DrainOptions{})
	}
	if err := aw.Flush(); err != nil {
		t.Fatal(err)
	}
	r := chaosRun{ts: ts, fi: fi, ctrl: ctrl, orphans: tscout.CheckLossIdentities(t, ts), parked: parked}

	// A controller thins the sampled events, and an unsampled marker is no
	// delivery; otherwise every CPU's hit counter matches the census.
	for cpu := 0; ctrl == nil && cpu < cfg.numCPUs; cpu++ {
		if got := fi.CPUHits(cpu); got != census[cpu] {
			t.Fatalf("cpu %d: injector counted %d hits, %d markers were delivered there", cpu, got, census[cpu])
		}
	}

	// The archive is the only copy of the points: it must verify and hold
	// exactly the delivered ones, per subsystem, none of them corrupt.
	t.Run("archive", func(t *testing.T) {
		st := p.Stats()
		lost := st.SinkRetryDrops + int64(st.PendingRetry)
		if !cfg.refuse && lost != 0 {
			t.Fatalf("healthy sink lost deliveries: retryDrops=%d pendingRetry=%d", st.SinkRetryDrops, st.PendingRetry)
		}
		ar, err := archive.NewReader(buf.Bytes())
		if err != nil {
			t.Fatalf("archive unreadable after chaos: %v", err)
		}
		if err := ar.Verify(); err != nil {
			t.Fatalf("archive fails deep verify after chaos: %v", err)
		}
		if ar.NumRows() != st.Processed-lost {
			t.Fatalf("archive has %d rows; processed %d - retry drops %d - pending retry %d",
				ar.NumRows(), st.Processed, st.SinkRetryDrops, st.PendingRetry)
		}
		pts, err := ar.Points()
		if err != nil {
			t.Fatal(err)
		}
		var rows [tscout.NumSubsystems]int64
		for _, tp := range pts {
			rows[tp.Subsystem]++
			// A cross-CPU base offset or a wrapped delta must have been torn
			// or discarded upstream.
			if tp.Metrics.Cycles >= 1<<40 || tp.Metrics.Instructions >= 1<<40 {
				t.Fatalf("%s: corrupt sample archived: %+v", tp.Subsystem, tp.Metrics)
			}
		}
		for _, sub := range tscout.AllSubsystems {
			// Only a refused delivery keeps a subsystem's point out of the
			// archive, and every refused point was charged to its SinkErrors.
			ks := st.Kernel[sub]
			if missing := ks.Points - rows[sub]; missing < 0 || missing > ks.SinkErrors {
				t.Fatalf("%s: archive holds %d rows of %d points, %d refused", sub, rows[sub], ks.Points, ks.SinkErrors)
			}
		}
	})
	return r
}

// expectFaultsFired fails a seeded scenario whose schedule never fired, or
// whose kills left no reaped orphan.
func expectFaultsFired(t *testing.T, r chaosRun) {
	t.Helper()
	if r.census().applied == [len(chaosPin{}.applied)]int64{} {
		t.Fatalf("the schedule applied no fault")
	}
	if r.fi.Applied(kernel.FaultKillTask) > 0 && r.orphans.StaleReaped == 0 {
		t.Fatalf("kills injected but no StaleReaped orphans")
	}
}

// TestChaosPipelineIdentity runs the scenario table: every seed at drain
// parallelism 1, 2 and 4 on four CPUs; every seed at one CPU against its pin
// and at eight CPUs; a sink that refuses every fifth delivery; and, in the
// group "autopilot", the four-CPU rows of three seeds with the autopilot
// retuning rates every epoch.
func TestChaosPipelineIdentity(t *testing.T) {
	var table []chaosConfig
	for _, seed := range chaosSeeds {
		for _, par := range []int{1, 2, 4} {
			table = append(table, standard(fmt.Sprintf("seed=%d/threads=%d", seed, par), seed, par, 4))
		}
	}
	for _, seed := range chaosSeeds {
		cfg := standard(fmt.Sprintf("cpus=1/seed=%d", seed), seed, 2, 1)
		cfg.pin = oneCPU[seed]
		table = append(table, cfg, standard(fmt.Sprintf("cpus=8/seed=%d", seed), seed, 4, 8))
	}
	refusing := standard("refusing-sink", 42, 2, 4)
	refusing.refuse = true
	table = append(table, refusing)
	for _, cfg := range table {
		t.Run(cfg.name, func(t *testing.T) { runScenario(t, cfg) })
	}

	t.Run("autopilot", func(t *testing.T) {
		for _, seed := range chaosSeeds[:3] {
			for _, par := range []int{1, 2, 4} {
				cfg := standard(fmt.Sprintf("seed=%d/threads=%d", seed, par), seed, par, 4)
				cfg.autopilot = true
				t.Run(cfg.name, func(t *testing.T) { runScenario(t, cfg) })
			}
		}
	})
}

// runScenario runs one row of the scenario table and holds it to the
// expectations its configuration names.
func runScenario(t *testing.T, cfg chaosConfig) {
	r := runChaos(t, cfg)
	expectFaultsFired(t, r)
	if got := r.census(); cfg.pin != (chaosPin{}) && got != cfg.pin {
		t.Fatalf("census at one CPU\n got  %+v\n want %+v", got, cfg.pin)
	}
	if cfg.autopilot {
		// Retuning changes how many events enter the pipeline, never where
		// they are accounted — and it must actually happen.
		cst := r.ctrl.Stats()
		if cst.Epochs == 0 || cst.PointsConsumed == 0 {
			t.Fatalf("controller never engaged: %+v", cst)
		}
		retuned := false
		for _, sub := range tscout.AllSubsystems {
			retuned = retuned || r.ts.Sampler().Rate(sub) != 100
			if cst.DriftEvents[sub] == 0 {
				t.Fatalf("%s: hardware-change burst not recorded", sub)
			}
		}
		if !retuned {
			t.Fatal("no subsystem was throttled: the retune path never ran")
		}
	}
	if cfg.refuse {
		if st := r.ts.Processor().Stats(); st.SinkRetries == 0 || r.parked == 0 {
			t.Fatalf("refusals never parked a batch for retry: %d retries, at most %d points parked",
				st.SinkRetries, r.parked)
		}
	}
}

// TestChaosPipelineIdentityCompiled re-runs the seed corpus with the
// Collectors JIT-compiled: the identities, zero runtime faults included,
// hold on the native path, and the run actually dispatched to it.
func TestChaosPipelineIdentityCompiled(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := standard("", seed, 2, 4)
			cfg.jit = true
			r := runChaos(t, cfg)
			st := r.ts.Processor().Stats()
			if st.TotalCompiledPrograms() == 0 {
				t.Fatalf("compiled chaos run never JIT-compiled a program: %+v", st.JIT)
			}
			var native int64
			for _, sub := range tscout.AllSubsystems {
				js := st.JIT[sub]
				native += js.Begin.CompiledRuns + js.End.CompiledRuns + js.Features.CompiledRuns
			}
			if native == 0 {
				t.Fatalf("compiled programs exist but no marker hit dispatched natively: %+v", st.JIT)
			}
		})
	}
}

// TestChaosCleanScheduleBaseline: with an empty fault plan the harness
// itself injects no loss — no orphan, no corrupt discard.
func TestChaosCleanScheduleBaseline(t *testing.T) {
	r := runChaos(t, chaosConfig{seed: 3, par: 2, numCPUs: 2, ous: 200, ringCap: 4096})
	if got := r.orphans.Total(); got != 0 {
		t.Fatalf("fault-free chaos run produced %d orphans: %+v", got, r.orphans)
	}
	if st := r.ts.Processor().Stats(); st.TotalCorruptDiscards() != 0 {
		t.Fatalf("fault-free run discarded %d samples as corrupt", st.TotalCorruptDiscards())
	}
}

// TestChaosEveryFaultClassAt8CPUs isolates one fault class at a time on an
// eight-CPU kernel with eight pinned workers, planning three faults on each
// CPU's own hit sequence. The identities must hold for every class, and the
// class must demonstrably have fired.
func TestChaosEveryFaultClassAt8CPUs(t *testing.T) {
	const numCPUs = 8
	for class := kernel.FaultDropMarker; class <= kernel.FaultRingBurst; class++ {
		t.Run(class.String(), func(t *testing.T) {
			var plan kernel.FaultPlan
			for cpu := 0; cpu < numCPUs; cpu++ {
				for _, hit := range []int64{2, 9, 23} {
					plan = append(plan, kernel.Fault{Kind: class, AtHit: hit, OnCPU: cpu,
						CPU: (cpu + 3) % numCPUs, Count: 2})
				}
			}
			r := runChaos(t, chaosConfig{seed: 99, par: 4, numCPUs: numCPUs, ous: 600,
				ringCap: 16, drainEvr: 25, workers: numCPUs, plan: plan})
			if r.fi.Applied(class) == 0 {
				t.Fatalf("%v: planned on every CPU but never applied", class)
			}
			expectFaultsFired(t, r)
			// Stationary classes leave the workers pinned, so every CPU's
			// counter passed its first planned hit. (Migrations and
			// kill/respawn move tasks off their home CPUs.)
			for cpu := 0; class != kernel.FaultMigrate && class != kernel.FaultKillTask && cpu < numCPUs; cpu++ {
				if got := r.fi.CPUHits(cpu); got <= 2 {
					t.Fatalf("%v: cpu %d saw only %d hits: per-CPU delivery untested", class, cpu, got)
				}
			}
		})
	}
}

// FuzzFaultSchedule feeds arbitrary (seed, fault-count, parallelism)
// triples through the harness on one to eight CPUs: whatever schedule
// GenFaultPlan produces, the identities must hold exactly.
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
		runChaos(t, chaosConfig{
			seed: seed, par: 1 + int(parSel%4), numCPUs: 1 + int(uint64(seed)%8),
			ous: 120, faults: int(faults), ringCap: 16, drainEvr: 20,
			// Half the schedules run the JIT so the fuzzer exercises both
			// execution engines under the same fault corpus.
			jit: seed%2 != 0,
		})
	})
}
