package tscout

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

// retuneRun drives one deployment at the given drain parallelism while a
// controller retunes rates mid-run: the execution engine follows a fixed
// schedule, but an unrelated subsystem (the log serializer) is retuned a
// parallelism-dependent number of times — the shape of a controller whose
// cadence tracks drain width, or of parallelism-dependent overload
// feedback. It returns the execution engine's bit field after each retune
// and the points it delivered to the sink.
func retuneRun(t *testing.T, seed int64, par int) ([][SamplingBits]bool, []TrainingPoint) {
	t.Helper()
	k := kernel.New(sim.LargeHW, seed, 0)
	ts := New(k, Config{
		Seed:                     seed,
		RingCapacity:             256,
		ProcessorParallelism:     par,
		DisableProcessorFeedback: true,
		ProcessorSink:            &recordingBatchSink{},
	})
	scan := ts.MustRegisterOU(OUDef{
		ID: 1, Name: "seq_scan", Subsystem: SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_bytes"},
	}, ResourceSet{CPU: true})
	ts.MustRegisterOU(OUDef{
		ID: 9, Name: "log_serialize", Subsystem: SubsystemLogSerializer,
		Features: []string{"num_records", "bytes"},
	}, ResourceSet{CPU: true})
	if err := ts.Deploy(); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	ts.Sampler().SetAllRates(100)
	p := ts.Processor()
	task := k.NewTask("w")

	schedule := []int{37, 83, 12, 61, 100, 45}
	var fields [][SamplingBits]bool
	for epoch, rate := range schedule {
		// Parallelism-dependent retunes of the *other* subsystem: they
		// must not change which of the execution engine's events sample.
		for j := 0; j < par+epoch; j++ {
			ts.Sampler().SetRate(SubsystemLogSerializer, 50+j)
		}
		ts.Sampler().SetRate(SubsystemExecutionEngine, rate)
		fields = append(fields, ts.Sampler().bits[SubsystemExecutionEngine])

		for e := 0; e < 40; e++ {
			ts.BeginEvent(task, SubsystemExecutionEngine)
			scan.Begin(task)
			task.Charge(sim.Work{Instructions: float64(300 + 10*e)})
			scan.End(task)
			scan.Features(task, 0, uint64(e), 8)
		}
		p.Drain(DrainOptions{})
	}
	k.ExitTask(task)
	for i := 0; i < 2; i++ {
		p.Drain(DrainOptions{})
	}
	return fields, sinkOf(ts).pointsFor(SubsystemExecutionEngine)
}

// TestLiveRetuneBitEquality holds live retuning deterministic: with rates
// toggled mid-run, a subsystem's sampling fields (and therefore the points
// its sink receives) must be bit-equal across drain parallelism 1/2/4 and
// across same-seed reruns, even when other subsystems' retune counts differ
// per parallelism.
func TestLiveRetuneBitEquality(t *testing.T) {
	const seed = 9
	baseFields, basePts := retuneRun(t, seed, 1)
	if len(basePts) == 0 {
		t.Fatal("baseline run archived no execution-engine points")
	}
	for _, par := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("threads=%d", par), func(t *testing.T) {
			fields, pts := retuneRun(t, seed, par)
			if !reflect.DeepEqual(fields, baseFields) {
				for i := range fields {
					if fields[i] != baseFields[i] {
						t.Fatalf("execution-engine field after retune %d differs from the par=1 run", i)
					}
				}
				t.Fatalf("field count differs: %d vs %d", len(fields), len(baseFields))
			}
			if len(pts) != len(basePts) {
				t.Fatalf("archived %d execution-engine points, par=1 archived %d", len(pts), len(basePts))
			}
			for i := range pts {
				if !reflect.DeepEqual(pts[i], basePts[i]) {
					t.Fatalf("point %d differs across parallelism:\n par=1 %+v\n par=%d %+v", i, basePts[i], par, pts[i])
				}
			}
		})
	}
}

// TestRetuneIsolationAcrossSubsystems pins that a field is a pure function
// of (seed, subsystem, rate): subsystem B's field must not depend on how
// often subsystem A was retuned; a field at rate r sets exactly r bits and
// is a subset of the field at any higher rate; any history of SetRate,
// SetAllRates and §3.2 feedback calls leaves every subsystem with a fresh
// sampler's field at its rate; and a retune allocates nothing.
func TestRetuneIsolationAcrossSubsystems(t *testing.T) {
	fieldAfter := func(aRetunes int) [SamplingBits]bool {
		s := NewSampler(123)
		for i := 0; i < aRetunes; i++ {
			s.SetRate(SubsystemNetworking, 10+i)
		}
		s.SetRate(SubsystemDiskWriter, 42)
		return s.bits[SubsystemDiskWriter]
	}
	want := fieldAfter(0)
	for _, n := range []int{1, 3, 17} {
		if got := fieldAfter(n); got != want {
			t.Fatalf("disk-writer field depends on %d unrelated networking retunes", n)
		}
	}

	for _, seed := range []int64{7, 21, 123} {
		// fresh[sub][r] is a new sampler's field at rate r.
		var fresh [NumSubsystems][101][SamplingBits]bool
		for _, sub := range AllSubsystems {
			for r := 0; r <= 100; r++ {
				s := NewSampler(seed)
				s.SetRate(sub, r)
				fresh[sub][r] = s.bits[sub]
			}
		}
		for _, sub := range AllSubsystems {
			for r := 0; r <= 100; r++ {
				set := 0
				for i, b := range fresh[sub][r] {
					if !b {
						continue
					}
					set++
					for hi := r + 1; hi <= 100; hi++ {
						if !fresh[sub][hi][i] {
							t.Fatalf("seed %d %s: bit %d is set at %d%% but not at %d%%", seed, sub, i, r, hi)
						}
					}
				}
				if set != r {
					t.Fatalf("seed %d %s: field at %d%% sets %d bits", seed, sub, r, set)
				}
			}
		}

		// A seeded history of retunes through every path, the feedback
		// through the Processor itself.
		ts := New(kernel.New(sim.LargeHW, seed, 0), Config{Seed: seed})
		s := ts.Sampler()
		rng := rand.New(rand.NewSource(seed + 1))
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(3); op {
			case 0:
				s.SetRate(AllSubsystems[rng.Intn(len(AllSubsystems))], rng.Intn(121)-10)
			case 1:
				s.SetAllRates(rng.Intn(101))
			case 2:
				var sub, drop [NumSubsystems]int64
				for i := range sub {
					sub[i] = 100
					drop[i] = int64(rng.Intn(2)) * 50
				}
				ts.Processor().applyFeedback(sub, drop)
			}
			for _, sub := range AllSubsystems {
				if s.bits[sub] != fresh[sub][s.Rate(sub)] {
					t.Fatalf("seed %d step %d: %s field at %d%% differs from a fresh sampler's", seed, step, sub, s.Rate(sub))
				}
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { s.SetRate(SubsystemExecutionEngine, 37) }); allocs != 0 {
			t.Fatalf("SetRate allocates %v objects a call", allocs)
		}
	}
}

// TestSamplerOrderPinned pins the positions a 10% rate sets at seed 21.
// The shuffle decides which events Figs. 5 and 6 and the ledger's
// fixed-rate workloads sample, so a change to it moves those figures.
func TestSamplerOrderPinned(t *testing.T) {
	s := NewSampler(21)
	s.SetAllRates(10)
	for sub, want := range map[SubsystemID][]int{
		SubsystemExecutionEngine: {4, 10, 20, 26, 32, 63, 65, 66, 70, 77},
		SubsystemDiskWriter:      {12, 24, 28, 36, 55, 60, 70, 75, 77, 79},
	} {
		var got []int
		for i, b := range s.bits[sub] {
			if b {
				got = append(got, i)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s at 10%% sets %v, want %v", sub, got, want)
		}
	}
}
