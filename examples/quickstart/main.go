// Quickstart: annotate one operating unit with TScout markers and watch a
// training-data point come out the other end.
//
// This example uses the framework directly (no DBMS): it registers a
// "sequential scan"-style OU, deploys TScout — which code-generates and
// verifies the kernel-space Collector — executes the OU with BEGIN/END/
// FEATURES markers around simulated work, and prints the training point
// the Processor assembles.
//
// Run: go run ./examples/quickstart
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

func main() {
	// A simulated machine and kernel (the paper's large evaluation box).
	k := kernel.New(sim.LargeHW, 42, 0.02)

	// 1. Declare the framework and the OU's input features (Setup Phase).
	//    Finished training points go to the Processor's sink: here the
	//    columnar archive, written to memory.
	var buf bytes.Buffer
	sink := archive.NewWriter(&buf)
	ts := tscout.New(k, tscout.Config{Mode: tscout.KernelContinuous, Seed: 1, ProcessorSink: sink})
	scan := ts.MustRegisterOU(tscout.OUDef{
		ID:        1,
		Name:      "seq_scan",
		Subsystem: tscout.SubsystemExecutionEngine,
		Features:  []string{"num_rows", "row_bytes"},
	}, tscout.ResourceSet{CPU: true, Memory: true, Disk: true})

	// 2. Deploy: codegen emits the Collector BPF programs, the verifier
	//    checks them, and they attach to the marker tracepoints.
	if err := ts.Deploy(); err != nil {
		log.Fatal(err)
	}
	ts.Sampler().SetAllRates(100) // collect every event for the demo

	col := ts.CollectorFor(tscout.SubsystemExecutionEngine)
	fmt.Printf("generated Collector: BEGIN=%d END=%d FEATURES=%d instructions (all verified)\n",
		len(col.Begin.Program().Insns),
		len(col.End.Program().Insns),
		len(col.Features.Program().Insns))

	// 3. Runtime Phase: a worker thread executes the annotated OU.
	worker := k.NewTask("worker")
	const rows, rowBytes = 10000, 128

	ts.BeginEvent(worker, tscout.SubsystemExecutionEngine) // per-query sampling decision
	scan.Begin(worker)
	worker.Charge(sim.Work{ // the scan's actual work
		Instructions:    40 * rows,
		BytesTouched:    rows * rowBytes,
		WorkingSetBytes: rows * rowBytes,
		AllocBytes:      4096,
	})
	scan.End(worker)
	scan.Features(worker, 4096, rows, rowBytes)

	// 4. The Processor drains the perf ring buffer into training points and
	//    writes them to the archive; read them back from there.
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
	for _, p := range pts {
		fmt.Printf("\ntraining point for %q (%s):\n", p.OUName, p.Subsystem)
		for i, name := range p.FeatureNames {
			fmt.Printf("  feature %-10s = %.0f\n", name, p.Features[i])
		}
		m := p.Metrics
		fmt.Printf("  metrics: elapsed=%.1fus cycles=%d instructions=%d cache_misses=%d alloc=%dB\n",
			float64(m.ElapsedNS)/1000, m.Cycles, m.Instructions, m.CacheMisses, m.AllocBytes)
	}
	fmt.Printf("\ncollection overhead on the worker: %dns kernel-space, %dns user-space\n",
		worker.KernelInstrumentationNS, worker.UserInstrumentationNS)
}
