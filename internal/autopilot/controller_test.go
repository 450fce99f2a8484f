package autopilot

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/kernel"
	"tscout/internal/model"
	"tscout/internal/sim"
	"tscout/internal/tscout"
)

// deployment is one instrumented pipeline with the controller attached:
// kernel -> TScout -> segment writer -> controller, all seeded.
type deployment struct {
	k    *kernel.Kernel
	ts   *tscout.TScout
	aw   *archive.Writer
	buf  *bytes.Buffer
	ctrl *Controller
	scan *tscout.Marker
	wal  *tscout.Marker
	task *kernel.Task
}

func newDeployment(tb testing.TB, seed int64, par int, cfg Config) *deployment {
	tb.Helper()
	k := kernel.New(sim.LargeHW, seed, 0)
	var buf bytes.Buffer
	aw := archive.NewWriterSize(&buf, 32) // small segments: seals every epoch
	ts := tscout.New(k, tscout.Config{
		Seed:                     seed,
		RingCapacity:             4096,
		ProcessorParallelism:     par,
		DisableProcessorFeedback: true,
		ProcessorSink:            aw,
	})
	d := &deployment{k: k, ts: ts, aw: aw, buf: &buf}
	d.scan = ts.MustRegisterOU(tscout.OUDef{
		ID: 1, Name: "seq_scan", Subsystem: tscout.SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_bytes"},
	}, tscout.ResourceSet{CPU: true})
	d.wal = ts.MustRegisterOU(tscout.OUDef{
		ID: 9, Name: "log_serialize", Subsystem: tscout.SubsystemLogSerializer,
		Features: []string{"num_records", "bytes"},
	}, tscout.ResourceSet{CPU: true})
	if err := ts.Deploy(); err != nil {
		tb.Fatalf("deploy: %v", err)
	}
	ts.Sampler().SetAllRates(100)
	d.ctrl = New(ts, aw, cfg)
	d.task = k.NewTask("driver")
	return d
}

// cycle emits one sampled OU invocation whose cost is insnPerRow * rows —
// a linear law the online ridge learns in a handful of epochs.
func (d *deployment) cycle(m *tscout.Marker, rows int, insnPerRow float64) {
	d.ts.BeginEvent(d.task, m.OU().Subsystem)
	m.Begin(d.task)
	d.task.Charge(sim.Work{Instructions: insnPerRow * float64(rows)})
	m.End(d.task)
	m.Features(d.task, 0, uint64(rows), 8)
}

// epoch drives n invocations, drains, and ticks the controller — one
// virtual-time controller epoch.
func (d *deployment) epoch(rng *rand.Rand, n int, insnPerRow float64) {
	for i := 0; i < n; i++ {
		d.cycle(d.scan, 1+rng.Intn(40), insnPerRow)
		d.cycle(d.wal, 1+rng.Intn(20), insnPerRow)
	}
	d.ts.Processor().Drain(tscout.DrainOptions{})
	d.ctrl.Tick()
}

func ridgeConfig() Config {
	return Config{
		MinSamples: 60,
		NewModel:   func() model.OnlineModel { return model.NewOnlineRidge(1e-3) },
	}
}

// TestControllerConvergesAndThrottles: on a stationary workload the
// prequential error collapses, the controller declares convergence, and
// the sampling rate descends geometrically to the floor — the near-zero-
// overhead end state. The stats block must be visible through
// ProcessorStats.Autopilot.
func TestControllerConvergesAndThrottles(t *testing.T) {
	d := newDeployment(t, 11, 1, ridgeConfig())
	rng := rand.New(rand.NewSource(5))
	for e := 0; e < 14; e++ {
		d.epoch(rng, 120, 50)
	}
	st := d.ts.Processor().Stats().Autopilot
	if !st.Enabled {
		t.Fatal("Autopilot block not published")
	}
	if st.Epochs != 14 {
		t.Fatalf("Epochs = %d, want 14", st.Epochs)
	}
	if st.Refits == 0 || st.PointsConsumed == 0 || st.Segments == 0 {
		t.Fatalf("controller consumed nothing: %+v", st)
	}
	for _, sub := range []tscout.SubsystemID{tscout.SubsystemExecutionEngine, tscout.SubsystemLogSerializer} {
		if got := d.ts.Sampler().Rate(sub); got != 1 {
			t.Fatalf("%s rate = %d after convergence, want floor 1", sub, got)
		}
		if !st.Converged[sub] {
			t.Fatalf("%s not marked converged: %+v", sub, st)
		}
		if st.Rates[sub] != 1 {
			t.Fatalf("%s stats rate = %d, want 1", sub, st.Rates[sub])
		}
		if st.RecentErrUS[sub] <= 0 {
			t.Fatalf("%s recent error not tracked", sub)
		}
	}
	// Subsystems that produced no data are held, not throttled.
	if got := d.ts.Sampler().Rate(tscout.SubsystemNetworking); got != 100 {
		t.Fatalf("idle subsystem retuned to %d", got)
	}
}

// TestControllerBurstsOnDrift: after convergence throttles sampling to
// the floor, a 20x cost-law change must be detected from the trickle of
// floor-rate samples and answered with a burst back to full sampling —
// and the models must then re-learn the new law and re-converge.
func TestControllerBurstsOnDrift(t *testing.T) {
	d := newDeployment(t, 23, 1, ridgeConfig())
	rng := rand.New(rand.NewSource(9))
	for e := 0; e < 14; e++ {
		d.epoch(rng, 120, 50)
	}
	ee := tscout.SubsystemExecutionEngine
	if got := d.ts.Sampler().Rate(ee); got != 1 {
		t.Fatalf("precondition: rate %d, want 1", got)
	}

	// Regime change: every row now costs 20x. At rate 1 only ~1% of
	// events are scored, so give the drift a few epochs to surface.
	burstSeen := false
	for e := 0; e < 30 && !burstSeen; e++ {
		d.epoch(rng, 300, 1000)
		burstSeen = d.ts.Sampler().Rate(ee) == 100
	}
	if !burstSeen {
		t.Fatalf("drift never triggered a burst: %+v", d.ctrl.Stats())
	}
	st := d.ctrl.Stats()
	if st.DriftEvents[ee] == 0 {
		t.Fatalf("burst without a recorded drift event: %+v", st)
	}
	if st.Converged[ee] {
		t.Fatal("drifting subsystem still marked converged")
	}

	// Full sampling over the new regime re-learns it and re-converges.
	for e := 0; e < 25; e++ {
		d.epoch(rng, 120, 1000)
	}
	if got := d.ts.Sampler().Rate(ee); got != 1 {
		t.Fatalf("did not re-converge after drift: rate %d, stats %+v", got, d.ctrl.Stats())
	}
}

// TestNoteHardwareChange: a hardware-context change bursts every
// subsystem immediately, without waiting for the error signal.
func TestNoteHardwareChange(t *testing.T) {
	d := newDeployment(t, 31, 1, ridgeConfig())
	rng := rand.New(rand.NewSource(2))
	for e := 0; e < 14; e++ {
		d.epoch(rng, 120, 50)
	}
	if got := d.ts.Sampler().Rate(tscout.SubsystemExecutionEngine); got != 1 {
		t.Fatalf("precondition: rate %d, want 1", got)
	}
	d.ctrl.NoteHardwareChange()
	st := d.ts.Processor().Stats().Autopilot
	for _, sub := range tscout.AllSubsystems {
		if got := d.ts.Sampler().Rate(sub); got != 100 {
			t.Fatalf("%s rate = %d after hardware change, want 100", sub, got)
		}
		if st.DriftEvents[sub] == 0 || st.Converged[sub] {
			t.Fatalf("%s drift state not updated: %+v", sub, st)
		}
	}
}

// TestControllerDeterminism: two same-seed runs with the controller
// attached produce bit-identical stats, rates, and archive bytes —
// ticks fire on the virtual-time schedule and every random choice is
// seeded, so the closed loop adds no nondeterminism.
func TestControllerDeterminism(t *testing.T) {
	run := func() (tscout.AutopilotStats, [tscout.NumSubsystems]int, []byte) {
		d := newDeployment(t, 47, 1, ridgeConfig())
		rng := rand.New(rand.NewSource(3))
		for e := 0; e < 10; e++ {
			d.epoch(rng, 100, 50)
		}
		d.ctrl.NoteHardwareChange()
		for e := 0; e < 10; e++ {
			d.epoch(rng, 100, 400)
		}
		if err := d.aw.Flush(); err != nil {
			t.Fatal(err)
		}
		return d.ctrl.Stats(), d.ts.Sampler().Rates(), d.buf.Bytes()
	}
	st1, r1, p1 := run()
	st2, r2, p2 := run()
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("stats diverged:\n %+v\n %+v", st1, st2)
	}
	if r1 != r2 {
		t.Fatalf("rates diverged: %v vs %v", r1, r2)
	}
	if !bytes.Equal(p1, p2) {
		t.Fatalf("archives diverged: %d vs %d bytes", len(p1), len(p2))
	}
}

// TestChaosIdentitiesWithAutopilot re-runs the chaos harness (seeded
// fault schedules: kills, ring bursts, migrations) with the controller
// retuning sampling rates every epoch — aggressive config so rates
// actually move every tick, plus a mid-run hardware-change burst. The
// pipeline's loss identities must hold exactly:
//
//	begins    == submitted + BeginWithoutEnd + TornMigration + StaleReaped + runtime faults
//	submitted == points + ring drops + decode errors + corrupt discards
//
// at drain parallelism 1, 2, and 4. Rate retuning changes how many
// events enter the pipeline; it must never change where they are
// accounted.
func TestChaosIdentitiesWithAutopilot(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, par := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("seed=%d/threads=%d", seed, par), func(t *testing.T) {
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
				aw := archive.NewWriterSize(&buf, 64)
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
				walOU := ts.MustRegisterOU(tscout.OUDef{
					ID: 9, Name: "log_serialize", Subsystem: tscout.SubsystemLogSerializer,
					Features: []string{"num_records", "bytes"},
				}, tscout.ResourceSet{CPU: true, Disk: true})
				if err := ts.Deploy(); err != nil {
					t.Fatalf("deploy: %v", err)
				}
				ts.Sampler().SetAllRates(100)
				p := ts.Processor()
				// Converge instantly and never declare drift: every tick
				// halves the rate toward the floor, so the run sweeps the
				// whole rate range while faults fly.
				ctrl := New(ts, aw, Config{
					MinSamples:    1,
					ConvergeRatio: 1e9,
					DriftRatio:    1e12,
					NewModel:      func() model.OnlineModel { return model.NewOnlineRidge(1e-3) },
				})

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
				markers := []*tscout.Marker{scan, walOU}
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
						ctrl.Tick()
					}
					if i == ous/2 {
						// Mid-run hardware change: everything bursts back to
						// 100% while the fault schedule keeps running.
						ctrl.NoteHardwareChange()
					}
				}
				for _, task := range tasks {
					k.ExitTask(task)
				}
				for i := 0; i < 3; i++ {
					p.Drain(tscout.DrainOptions{})
					ctrl.Tick()
				}

				cst := ctrl.Stats()
				if cst.Epochs == 0 || cst.PointsConsumed == 0 {
					t.Fatalf("controller never engaged: %+v", cst)
				}
				retuned := false
				for _, sub := range tscout.AllSubsystems {
					if r := ts.Sampler().Rate(sub); r != 100 {
						retuned = true
					}
					if cst.DriftEvents[sub] == 0 {
						t.Fatalf("%s: hardware-change burst not recorded", sub)
					}
				}
				if !retuned {
					t.Fatal("no subsystem was throttled — the retune path never ran")
				}

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

				// The segment archive still captures exactly the surviving
				// points: the controller reads seal notifications, it never
				// taps the delivery path.
				if st.SinkRetryDrops != 0 {
					t.Fatalf("sink deliveries lost: retryDrops=%d", st.SinkRetryDrops)
				}
				if err := aw.Flush(); err != nil {
					t.Fatal(err)
				}
				r, err := archive.NewReader(buf.Bytes())
				if err != nil {
					t.Fatalf("segment archive unreadable after chaos: %v", err)
				}
				if r.NumRows() != st.Processed {
					t.Fatalf("archive rows %d != %d points produced", r.NumRows(), st.Processed)
				}
			})
		}
	}
}
