package autopilot

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/kernel"
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
// a law the default forest learns in a handful of epochs.
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

func testConfig() Config {
	return Config{MinSamples: 60}
}

// TestControllerConvergesAndThrottles: on a stationary workload the
// prequential error collapses, the controller declares convergence, and
// the sampling rate descends geometrically to the floor — the near-zero-
// overhead end state. The stats block must be visible through
// ProcessorStats.Autopilot.
func TestControllerConvergesAndThrottles(t *testing.T) {
	d := newDeployment(t, 11, 1, testConfig())
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
	d := newDeployment(t, 23, 1, testConfig())
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
	d := newDeployment(t, 31, 1, testConfig())
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
		d := newDeployment(t, 47, 1, testConfig())
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
		var rates [tscout.NumSubsystems]int
		for _, sub := range tscout.AllSubsystems {
			rates[sub] = d.ts.Sampler().Rate(sub)
		}
		return d.ctrl.Stats(), rates, d.buf.Bytes()
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
