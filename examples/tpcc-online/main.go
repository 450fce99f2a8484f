// tpcc-online: collect online training data from a TPC-C run and show how
// it improves the DBMS's behavior models over offline runner data — the
// paper's Figure 2 experiment in miniature.
//
// Run: go run ./examples/tpcc-online
package main

import (
	"bytes"
	"fmt"
	"log"

	"tscout/internal/archive"
	"tscout/internal/dbms"
	"tscout/internal/model"
	"tscout/internal/runner"
	"tscout/internal/sim"
	"tscout/internal/tscout"
	"tscout/internal/wal"
	"tscout/internal/workload"
)

func main() {
	// --- Offline data: runners on an idle, synchronous-WAL server ------
	var offBuf bytes.Buffer
	offSink := archive.NewWriter(&offBuf)
	offSrv, err := dbms.NewServer(dbms.Config{
		Seed: 1, NoiseSigma: 0.04, Instrument: true, Sink: offSink,
		WAL: wal.Config{Synchronous: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := runner.RunAll(offSrv, runner.Config{}); err != nil {
		log.Fatal(err)
	}
	offSrv.TS.Processor().Drain(tscout.DrainOptions{})
	hw := []float64{sim.LargeHW.ClockGHz * 1000}
	offline := archivePoints(offSink, &offBuf, hw)
	fmt.Printf("offline runner data: %d points\n", len(offline))

	// --- Online data: instrumented TPC-C with 16 clients ---------------
	var onBuf bytes.Buffer
	onSink := archive.NewWriter(&onBuf)
	onSrv, err := dbms.NewServer(dbms.Config{
		Seed: 2, NoiseSigma: 0.04, Instrument: true, DisableFeedback: true, Sink: onSink,
		WAL: wal.Config{GroupSize: 32, FlushIntervalNS: 200_000},
	})
	if err != nil {
		log.Fatal(err)
	}
	gen := &workload.TPCC{Warehouses: 2, CustomersPerDistrict: 20,
		Items: 200, InitialOrdersPerDistrict: 20}
	if err := gen.Setup(onSrv); err != nil {
		log.Fatal(err)
	}
	onSrv.TS.Sampler().SetAllRates(100)
	res, err := workload.Run(onSrv, gen, workload.Config{
		Terminals: 16, Transactions: 2000, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	online := archivePoints(onSink, &onBuf, hw)
	fmt.Printf("online TPC-C data:   %d points (%.0f txn/s, %.1f%% aborts)\n",
		len(online), res.ThroughputTPS,
		100*float64(res.Aborted)/float64(res.Completed+res.Aborted))

	// --- Train per-OU models and compare ---------------------------------
	trainer := model.Forest{Trees: 16, MaxDepth: 10, Seed: 7}
	fmt.Printf("\n%-18s %14s %14s %10s\n", "subsystem", "offline-only", "with-online", "reduction")
	for _, sub := range tscout.AllSubsystems {
		offSub := model.FilterSub(offline, sub)
		trainOn, testOn := model.SplitRows(model.FilterSub(online, sub), 0.2, 9)
		if len(testOn) == 0 {
			continue
		}
		offSet, err := model.Train(offSub, trainer)
		if err != nil {
			log.Fatal(err)
		}
		combined, err := model.Train(append(append([]model.Point(nil), offSub...), trainOn...), trainer)
		if err != nil {
			log.Fatal(err)
		}
		offErr := offSet.AvgAbsErrorByTemplate(testOn)
		onErr := combined.AvgAbsErrorByTemplate(testOn)
		fmt.Printf("%-18s %12.2fus %12.2fus %9.1f%%\n",
			sub.String(), offErr, onErr, 100*(offErr-onErr)/offErr)
	}
	fmt.Println("\nThe WAL subsystems improve the most: their behavior depends on group-commit")
	fmt.Println("batching that the offline runners never observe (paper §6.5).")
}

// archivePoints seals the archive the run wrote and reads it back as
// model points, the path a trainer takes in production.
func archivePoints(sink *archive.Writer, buf *bytes.Buffer, hw []float64) []model.Point {
	if err := sink.Flush(); err != nil {
		log.Fatal(err)
	}
	r, err := archive.NewReader(buf.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	pts, err := model.FromArchive(r, hw)
	if err != nil {
		log.Fatal(err)
	}
	return pts
}
