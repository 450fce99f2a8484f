package tscout

import (
	"fmt"
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
		// Parallelism-dependent retunes of the *other* subsystem. With one
		// shared noise stream these draws shifted the execution engine's
		// next permutation, so runs at different drain widths silently
		// disagreed on which events sampled.
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

// TestLiveRetuneBitEquality is the regression test for the shared-stream
// SetRate bug: with rates toggled mid-run, a subsystem's sampling fields
// (and therefore the points its sink receives) must be bit-equal across drain
// parallelism 1/2/4 and across same-seed reruns, even when other
// subsystems' retune counts differ per parallelism.
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

// TestRetuneIsolationAcrossSubsystems pins the per-subsystem stream
// property directly: subsystem B's field after its g-th retune must not
// depend on how many times subsystem A was retuned in between.
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
	// Both paths regenerate a field: it sets as many bits as its rate.
	s := NewSampler(7)
	s.SetAllRates(100)
	s.SetRate(SubsystemExecutionEngine, 30)
	for _, c := range []struct {
		sub  SubsystemID
		rate int
	}{{SubsystemExecutionEngine, 30}, {SubsystemNetworking, 100}} {
		set := 0
		for _, b := range s.bits[c.sub] {
			if b {
				set++
			}
		}
		if set != c.rate {
			t.Fatalf("%s field sets %d bits, want its rate %d", c.sub, set, c.rate)
		}
	}
}
