package workload

import (
	"fmt"
	"hash/fnv"
	"testing"

	"tscout/internal/dbms"
	"tscout/internal/tscout"
	"tscout/internal/wal"
)

// goldenSingleCPUHash is the FNV-64a fingerprint of the canonical
// single-CPU (NumCPUs=1) instrumented TPC-C run, captured from the
// single-global-clock scheduler this repository used before the per-CPU
// epoch/barrier refactor. The multi-core work keeps CPU 0's noise stream
// seeded exactly as the old global stream, so this hash must never move:
// it is the proof that every recorded experiment (EXPERIMENTS.md) remains
// valid after the refactor.
//
// The hash covers only quantities that existed before the refactor (an
// explicit field list, not a struct dump), so growing Result with new
// telemetry cannot disturb it.
const (
	goldenSingleCPUHash      = uint64(0xbd52615ba4813889)
	goldenSingleCPUCompleted = 300
	goldenSingleCPUElapsedNS = 39378411
	goldenSingleCPUPoints    = 11080
)

// goldenFingerprint hashes the pre-PR-observable outputs of a run: the
// scalar results plus every training point the sink received, in order.
func goldenFingerprint(res Result, pts []tscout.TrainingPoint) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "completed=%d aborted=%d elapsed=%d tps=%.9g p50=%d p99=%d mean=%d points=%d sps=%.9g\n",
		res.Completed, res.Aborted, res.ElapsedNS, res.ThroughputTPS,
		res.P50NS, res.P99NS, res.MeanNS, res.TrainingPoints, res.SamplesPerSec)
	for _, p := range pts {
		fmt.Fprintf(h, "%d|%s|%d|%d|%v|%+v\n", p.OU, p.OUName, int(p.Subsystem), p.PID, p.Features, p.Metrics)
	}
	return h.Sum64()
}

// goldenRun executes the canonical fingerprint workload: instrumented
// TPC-C at 4 terminals with 3% measurement noise on the default
// single-CPU topology — the configuration class every recorded
// experiment used. The points are what the Processor's sink received,
// through an archive sealing rowsPerSegment-row segments (0 = default).
func goldenRun(t *testing.T, rowsPerSegment int) (Result, []tscout.TrainingPoint) {
	t.Helper()
	arch := newTestArchive(rowsPerSegment)
	srv, err := dbms.NewServer(dbms.Config{
		Seed: 77, NoiseSigma: 0.03, Instrument: true,
		Sink: arch.w,
		WAL:  wal.Config{GroupSize: 8, FlushIntervalNS: 100_000},
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	gen := &TPCC{Warehouses: 1, CustomersPerDistrict: 10, Items: 100, InitialOrdersPerDistrict: 10}
	if err := gen.Setup(srv); err != nil {
		t.Fatalf("setup: %v", err)
	}
	srv.TS.Sampler().SetAllRates(100)
	res, err := Run(srv, gen, Config{Terminals: 4, Transactions: 300, Seed: 77})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, arch.points(t)
}

// TestSingleCPUGoldenFingerprint locks the NumCPUs=1 schedule to the
// pre-refactor single-clock scheduler, bit for bit.
func TestSingleCPUGoldenFingerprint(t *testing.T) {
	res, pts := goldenRun(t, 0)
	if res.Completed != goldenSingleCPUCompleted {
		t.Fatalf("completed = %d, want %d", res.Completed, goldenSingleCPUCompleted)
	}
	if res.ElapsedNS != goldenSingleCPUElapsedNS {
		t.Fatalf("elapsed = %d, want %d", res.ElapsedNS, goldenSingleCPUElapsedNS)
	}
	if res.TrainingPoints != goldenSingleCPUPoints {
		t.Fatalf("points = %d, want %d", res.TrainingPoints, goldenSingleCPUPoints)
	}
	if got := goldenFingerprint(res, pts); got != goldenSingleCPUHash {
		t.Fatalf("golden fingerprint = %#x, want %#x", got, goldenSingleCPUHash)
	}
}
