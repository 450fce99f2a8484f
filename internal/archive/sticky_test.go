package archive

import (
	"errors"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
	"tscout/internal/tscout"
)

// brokenDisk accepts the first n writes, then fails every one after —
// the shape of a filled-up or torn-away archive volume.
type brokenDisk struct {
	okWrites int
	writes   int
}

var errDiskGone = errors.New("archive volume gone")

func (d *brokenDisk) Write(p []byte) (int, error) {
	d.writes++
	if d.writes > d.okWrites {
		return 0, errDiskGone
	}
	return len(p), nil
}

// TestStickyWriterFailsFastInPipeline injects a real segment Writer over a
// disk that dies mid-run and asserts the Processor's sticky fast-fail
// path end to end: after the one failing seal, no retry attempts are
// burned, nothing stays parked in the retry queue, and every point the
// dead writer lost is counted.
func TestStickyWriterFailsFastInPipeline(t *testing.T) {
	disk := &brokenDisk{okWrites: 2}
	aw := NewWriterSize(disk, 16) // seal every 16 rows: failure hits early
	k := kernel.New(sim.LargeHW, 21, 0)
	ts := tscout.New(k, tscout.Config{
		Seed: 21, ProcessorSink: aw, DisableProcessorFeedback: true,
	})
	scan := ts.MustRegisterOU(tscout.OUDef{
		ID: 1, Name: "seq_scan", Subsystem: tscout.SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_bytes"},
	}, tscout.ResourceSet{CPU: true})
	if err := ts.Deploy(); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	ts.Sampler().SetAllRates(100)
	p := ts.Processor()
	task := k.NewTask("w")

	for i := 0; i < 200; i++ {
		ts.BeginEvent(task, tscout.SubsystemExecutionEngine)
		scan.Begin(task)
		task.Charge(sim.Work{Instructions: 500})
		scan.End(task)
		scan.Features(task, 0, uint64(i), 8)
		if i%10 == 9 {
			p.Drain(tscout.DrainOptions{})
		}
	}
	k.ExitTask(task)
	for i := 0; i < 3; i++ {
		p.Drain(tscout.DrainOptions{})
	}

	if !errors.Is(aw.StickyErr(), errDiskGone) {
		t.Fatalf("StickyErr = %v, want the disk error (did the writer never seal?)", aw.StickyErr())
	}
	st := p.Stats()
	if st.SinkRetryDrops == 0 {
		t.Fatalf("points lost to the dead writer were not counted in SinkRetryDrops")
	}
	ks := st.Kernel[tscout.SubsystemExecutionEngine]
	// Every produced point either made it into the writer's accepted rows
	// (including rows pending in an unsealed segment) or was charged as a
	// sink rejection — no silent loss on the delivery path.
	if ks.Points != aw.Rows()+ks.SinkErrors {
		t.Fatalf("points %d != accepted rows %d + sink errors %d", ks.Points, aw.Rows(), ks.SinkErrors)
	}
}
