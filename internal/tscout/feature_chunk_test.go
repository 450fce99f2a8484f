package tscout_test

import (
	"bytes"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/kernel"
	"tscout/internal/sim"
	"tscout/internal/tscout"
)

// TestArchivedFeaturesSurviveLaterDrains guards the archive against
// aliasing: the archive writer's segment spans many drains, while every
// drain cuts its vectors from the same feature slice, and every archived
// vector must still be the one its sample carried. A writer that kept a
// drain's vectors past WriteBatch would see later drains overwrite them.
func TestArchivedFeaturesSurviveLaterDrains(t *testing.T) {
	const drains, perDrain, segRows = 40, 90, 1000 // a segment spans 11 drains
	k := kernel.New(sim.LargeHW, 5, 0)
	var buf bytes.Buffer
	aw := archive.NewWriterSize(&buf, segRows)
	ts := tscout.New(k, tscout.Config{
		Seed:                     5,
		RingCapacity:             perDrain,
		DisableProcessorFeedback: true,
		ProcessorSink:            aw,
	})
	ts.MustRegisterOU(tscout.OUDef{
		ID: 1, Name: "seq_scan", Subsystem: tscout.SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_bytes", "width"},
	}, tscout.ResourceSet{CPU: true})
	if err := ts.Deploy(); err != nil {
		t.Fatal(err)
	}
	ring := ts.CollectorFor(tscout.SubsystemExecutionEngine).Ring
	p := ts.Processor()
	for d, n := 0, uint64(0); d < drains; d++ {
		for i := 0; i < perDrain; i++ {
			// A third of the samples carry two words for three names: padded.
			words := []uint64{n, 3*n + 1, n % 7}
			if n%3 == 0 {
				words = words[:2]
			}
			ring.Submit(tscout.EncodeSample(1, 1, tscout.Metrics{ElapsedNS: 10}, words))
			n++
		}
		p.Drain(tscout.DrainOptions{})
	}
	if err := aw.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := archive.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := r.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != drains*perDrain {
		t.Fatalf("archived %d points, want %d", len(pts), drains*perDrain)
	}
	for i, tp := range pts {
		n := float64(i)
		want := []float64{n, 3*n + 1, float64(i % 7)}
		if i%3 == 0 {
			want[2] = 0
		}
		if len(tp.Features) != len(want) || tp.Features[0] != want[0] || tp.Features[1] != want[1] || tp.Features[2] != want[2] {
			t.Fatalf("row %d (drain %d) archived features %v, want %v", i, i/perDrain, tp.Features, want)
		}
	}
}
