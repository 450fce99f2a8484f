// custom-probe: instrument a new DBMS subsystem with TScout, combining
// the built-in kernel-level probes with a user-level memory probe, fused
// feature vectors for a compiled pipeline (§5.2), and live per-subsystem
// sampling-rate adjustment (§5.3).
//
// The "subsystem" here is a toy garbage collector with two OUs: a mark
// pass and a sweep pass that the GC runs back-to-back under one
// measurement, as a JIT-fused pipeline would.
//
// Run: go run ./examples/custom-probe
package main

import (
	"bytes"
	"fmt"
	"log"

	"tscout/internal/archive"
	"tscout/internal/kernel"
	"tscout/internal/sim"
	"tscout/internal/tscout"
)

const (
	ouGCPipeline tscout.OUID = 300
	ouGCMark     tscout.OUID = 301
	ouGCSweep    tscout.OUID = 302
)

func main() {
	k := kernel.New(sim.LargeHW, 5, 0.02)
	// Training points land in the Processor's sink: a columnar archive,
	// written to memory here.
	var buf bytes.Buffer
	sink := archive.NewWriter(&buf)
	ts := tscout.New(k, tscout.Config{
		Seed: 5, ProcessorSink: sink,
		CompileCollectors: true,
	})

	// The GC subsystem piggybacks on the log-serializer subsystem slot's
	// sibling: for a real integration you would extend SubsystemID; here
	// we reuse the execution engine's Collector with our own OUs.
	pipeline := ts.MustRegisterOU(tscout.OUDef{
		ID: ouGCPipeline, Name: "gc_pipeline",
		Subsystem: tscout.SubsystemExecutionEngine,
		Features:  []string{"num_ous"},
	}, tscout.ResourceSet{CPU: true, Memory: true})
	for id, name := range map[tscout.OUID]string{ouGCMark: "gc_mark", ouGCSweep: "gc_sweep"} {
		ts.MustRegisterOU(tscout.OUDef{
			ID: id, Name: name,
			Subsystem: tscout.SubsystemExecutionEngine,
			Features:  []string{"num_objects"},
		}, tscout.ResourceSet{CPU: true, Memory: true})
	}
	if err := ts.Deploy(); err != nil {
		log.Fatal(err)
	}
	ts.Sampler().SetRate(tscout.SubsystemExecutionEngine, 100)

	// Split fused metrics proportionally to each OU's object count — the
	// role the offline per-OU models play in the paper's preprocessing.
	ts.Processor().SetSplitter(func(ou tscout.OUID, f []float64) float64 {
		if ou == ouGCSweep {
			return f[0] * 2 // sweeping costs ~2x per object
		}
		return f[0]
	})

	gc := k.NewTask("gc-thread")
	runGC := func(objects int64) {
		ts.BeginEvent(gc, tscout.SubsystemExecutionEngine)
		pipeline.Begin(gc)
		// Mark then sweep under ONE measurement (fused pipeline).
		gc.Charge(sim.Work{Instructions: 60 * float64(objects), BytesTouched: 48 * float64(objects),
			WorkingSetBytes: 48 * float64(objects), RandomAccessFraction: 0.8})
		gc.Charge(sim.Work{Instructions: 120 * float64(objects), BytesTouched: 64 * float64(objects),
			AllocBytes: -0, WorkingSetBytes: 64 * float64(objects)})
		pipeline.End(gc)
		// The user-level memory probe reports bytes reclaimed; the fused
		// FEATURES record carries each OU's feature vector.
		if err := pipeline.FeaturesVector(gc, 48*objects, []tscout.FusedPart{
			{OU: ouGCMark, Features: []uint64{uint64(objects)}},
			{OU: ouGCSweep, Features: []uint64{uint64(objects)}},
		}); err != nil {
			log.Fatal(err)
		}
	}

	for _, n := range []int64{1000, 5000, 20000} {
		runGC(n)
	}
	ts.Processor().Drain(tscout.DrainOptions{})
	if err := sink.Flush(); err != nil {
		log.Fatal(err)
	}
	r, err := archive.NewReader(buf.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	pts, err := r.Points()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fused GC samples split into per-OU training points:")
	for _, p := range pts {
		fmt.Printf("  %-10s objects=%6.0f elapsed=%8.1fus alloc=%dB\n",
			p.OUName, p.Features[0], float64(p.Metrics.ElapsedNS)/1000, p.Metrics.AllocBytes)
	}

	// Live rate adjustment: crank the subsystem down to 10% and observe
	// the collection volume drop — no redeployment needed (§5.3, §5.4).
	ts.Processor().Reset()
	ts.Sampler().SetRate(tscout.SubsystemExecutionEngine, 10)
	for i := 0; i < 100; i++ {
		runGC(1000)
	}
	ts.Processor().Drain(tscout.DrainOptions{})
	fmt.Printf("\nat a 10%% sampling rate, 100 GC runs produced %d fused samples (~10 expected)\n",
		ts.Processor().Stats().Processed/2)

	// The marker state machine guards against instrumentation bugs.
	ts.Sampler().SetRate(tscout.SubsystemExecutionEngine, 100)
	bad := k.NewTask("buggy-thread")
	ts.BeginEvent(bad, tscout.SubsystemExecutionEngine)
	pipeline.End(bad) // END without BEGIN
	col := ts.CollectorFor(tscout.SubsystemExecutionEngine)
	fmt.Printf("marker-order violations detected in kernel space: %d\n", col.ErrorCount())
}
