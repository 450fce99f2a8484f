// hw-migration: the paper's §6.4 scenario. The DBMS's behavior models
// were trained with offline runners on a small 6-core machine; the DBMS
// then migrates to a 40-core server. One minute of online collection on
// the new machine repairs the models without re-running the runners.
//
// Run: go run ./examples/hw-migration
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

func collectOffline(profile sim.HardwareProfile) []model.Point {
	var buf bytes.Buffer
	sink := archive.NewWriter(&buf)
	srv, err := dbms.NewServer(dbms.Config{
		Profile: profile, Seed: 11, NoiseSigma: 0.04, Instrument: true, Sink: sink,
		WAL: wal.Config{Synchronous: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := runner.RunAll(srv, runner.Config{}); err != nil {
		log.Fatal(err)
	}
	srv.TS.Processor().Drain(tscout.DrainOptions{})
	return archivePoints(sink, &buf, []float64{profile.ClockGHz * 1000})
}

func collectOnline(profile sim.HardwareProfile) []model.Point {
	var buf bytes.Buffer
	sink := archive.NewWriter(&buf)
	srv, err := dbms.NewServer(dbms.Config{
		Profile: profile, Seed: 12, NoiseSigma: 0.04, Instrument: true,
		DisableFeedback: true, Sink: sink,
		WAL: wal.Config{GroupSize: 32, FlushIntervalNS: 200_000},
	})
	if err != nil {
		log.Fatal(err)
	}
	gen := &workload.TPCC{Warehouses: 2, CustomersPerDistrict: 20,
		Items: 200, InitialOrdersPerDistrict: 20}
	if err := gen.Setup(srv); err != nil {
		log.Fatal(err)
	}
	srv.TS.Sampler().SetAllRates(100)
	if _, err := workload.Run(srv, gen, workload.Config{
		Terminals: 1, Transactions: 1500, Seed: 13,
	}); err != nil {
		log.Fatal(err)
	}
	return archivePoints(sink, &buf, []float64{profile.ClockGHz * 1000})
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

func main() {
	fmt.Println("Phase 1: offline runners on the ORIGINAL hardware (6-core, 12MB L3)...")
	offline := collectOffline(sim.SmallHW)

	fmt.Println("Phase 2: migrate to the NEW hardware (2x20-core, 27.5MB L3) and run TPC-C")
	fmt.Println("         with TScout enabled for one collection window...")
	online := collectOnline(sim.LargeHW)
	trainOn, testOn := model.SplitRows(online, 0.2, 14)

	trainer := model.Forest{Trees: 16, MaxDepth: 10, Seed: 7}
	fmt.Printf("\nprediction error on the NEW hardware (avg abs error per template):\n")
	fmt.Printf("%-18s %16s %16s\n", "subsystem", "stale offline", "offline+online")
	for _, sub := range tscout.AllSubsystems {
		offSub := model.FilterSub(offline, sub)
		trn := model.FilterSub(trainOn, sub)
		tst := model.FilterSub(testOn, sub)
		if len(tst) == 0 {
			continue
		}
		offSet, err := model.Train(offSub, trainer)
		if err != nil {
			log.Fatal(err)
		}
		combined, err := model.Train(append(append([]model.Point(nil), offSub...), trn...), trainer)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %14.2fus %14.2fus\n", sub.String(),
			offSet.AvgAbsErrorByTemplate(tst), combined.AvgAbsErrorByTemplate(tst))
	}
	fmt.Println("\nThe disk writer gains the most: flush time is bound to the storage device,")
	fmt.Println("and the models have no hardware context features to transfer it (paper §6.4).")
}
