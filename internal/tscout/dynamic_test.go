package tscout

import (
	"testing"
	"testing/quick"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

// TestDynamicFeatureSelection exercises §5.4: change what an OU collects
// without restarting the DBMS, by unloading the Collector, re-registering
// the OU with new features, and redeploying.
func TestDynamicFeatureSelection(t *testing.T) {
	k := kernel.New(sim.LargeHW, 9, 0)
	ts := New(k, Config{Seed: 9, ProcessorSink: &recordingBatchSink{}})
	m := ts.MustRegisterOU(OUDef{
		ID: 1, Name: "scan", Subsystem: SubsystemExecutionEngine,
		Features: []string{"num_rows"},
	}, ResourceSet{CPU: true})
	if err := ts.Deploy(); err != nil {
		t.Fatal(err)
	}
	ts.Sampler().SetAllRates(100)
	task := k.NewTask("w")

	ts.BeginEvent(task, SubsystemExecutionEngine)
	m.Begin(task)
	task.Charge(sim.Work{Instructions: 1000, BytesTouched: 64})
	m.End(task)
	m.Features(task, 0, 500)
	ts.Processor().Drain(DrainOptions{})

	// The models now need a second feature: unload, modify, reload.
	ts.Undeploy()
	m2, err := ts.RegisterOU(OUDef{
		ID: 2, Name: "scan_v2", Subsystem: SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_width"},
	}, ResourceSet{CPU: true, Disk: true})
	if err != nil {
		t.Fatalf("re-registration after Undeploy must work (§5.4): %v", err)
	}
	if err := ts.Deploy(); err != nil {
		t.Fatal(err)
	}
	ts.BeginEvent(task, SubsystemExecutionEngine)
	m2.Begin(task)
	task.Charge(sim.Work{Instructions: 1000, BytesTouched: 64, DiskWriteBytes: 512, DiskOps: 1})
	m2.End(task)
	m2.Features(task, 0, 500, 64)
	ts.Processor().Drain(DrainOptions{})

	pts := sinkOf(ts).points()
	if len(pts) != 2 {
		t.Fatalf("points: %d", len(pts))
	}
	if len(pts[0].Features) != 1 || len(pts[1].Features) != 2 {
		t.Fatalf("feature sets: %v / %v", pts[0].Features, pts[1].Features)
	}
	if pts[1].Metrics.DiskWriteBytes != 512 {
		t.Fatalf("new resource (disk) must be collected after redeploy: %+v", pts[1].Metrics)
	}
}

// TestMarkerStateMachineProperty fires random marker sequences at the
// Collector (the §5.1 robustness property): it must never fault, every
// violation must be counted, and a clean cycle afterwards must still
// produce a sample.
func TestMarkerStateMachineProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		k := kernel.New(sim.LargeHW, 3, 0)
		ts := New(k, Config{Seed: 3, DisableProcessorFeedback: true, ProcessorSink: &recordingBatchSink{}})
		m := ts.MustRegisterOU(OUDef{
			ID: 1, Name: "x", Subsystem: SubsystemExecutionEngine,
			Features: []string{"n"},
		}, ResourceSet{CPU: true})
		if err := ts.Deploy(); err != nil {
			return false
		}
		ts.Sampler().SetAllRates(100)
		task := k.NewTask("w")
		ts.BeginEvent(task, SubsystemExecutionEngine)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				m.Begin(task)
			case 1:
				m.End(task)
			case 2:
				m.Features(task, 0, 1)
			}
		}
		// Whatever happened, a clean cycle must still work.
		m.Begin(task)
		task.Charge(sim.Work{Instructions: 100, BytesTouched: 64})
		m.End(task)
		m.Features(task, 0, 42)
		ts.Processor().Drain(DrainOptions{})
		pts := sinkOf(ts).points()
		if len(pts) == 0 {
			return false
		}
		// The newest point must be the clean cycle's.
		last := pts[len(pts)-1]
		return last.Features[0] == 42 && ts.Processor().Stats().Kernel[SubsystemExecutionEngine].DecodeErrors == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
