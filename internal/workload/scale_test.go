package workload

import (
	"fmt"
	"reflect"
	"testing"

	"tscout/internal/dbms"
	"tscout/internal/wal"
)

// This file is the multi-core determinism regression suite for the pooled
// epoch/barrier driver: the schedule — and therefore the sink stream and
// every per-CPU noise stream — must be a pure function of the seed at every
// (NumCPUs, drain parallelism) point in the support grid. The companion
// golden_test.go locks NumCPUs=1 on the legacy driver to the pre-refactor
// single-clock schedule bit for bit; here we lock run-to-run determinism of
// the epoch engine itself, including under -race (make race runs this
// package with the detector on, so any unsynchronized nondeterminism in the
// drain workers or the barrier merge shows up as a race or a mismatch).

// scaleRun executes one pooled SmallBank run on a fresh server and returns
// the archive fingerprint, the kernel's per-CPU noise-draw census, and the
// full Result.
func scaleRun(t *testing.T, numCPUs, par, terminals, txns, pool int) (uint64, []uint64, Result) {
	t.Helper()
	arch := newTestArchive(0)
	srv, err := dbms.NewServer(dbms.Config{
		Seed: 42, NoiseSigma: 0.03, Instrument: true,
		NumCPUs: numCPUs, ProcessorParallelism: par, Sink: arch.w,
		WAL: wal.Config{GroupSize: 16, FlushIntervalNS: 200_000},
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	gen := &SmallBank{Customers: 200}
	if err := gen.Setup(srv); err != nil {
		t.Fatalf("setup: %v", err)
	}
	srv.TS.Sampler().SetAllRates(100)
	res, err := Run(srv, gen, Config{
		Terminals: terminals, Transactions: txns, Seed: 42, PoolSessions: pool,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return goldenFingerprint(res, arch.points(t)), srv.Kernel.NoiseDraws(), res
}

// TestEpochEngineDeterminism runs every (NumCPUs, drain parallelism) point
// in the support grid twice from the same seed: the archive fingerprints,
// the noise-draw censuses, and the full Results must match exactly.
func TestEpochEngineDeterminism(t *testing.T) {
	for _, numCPUs := range []int{1, 8, 32} {
		for _, par := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("cpus=%d/threads=%d", numCPUs, par), func(t *testing.T) {
				fp1, nd1, res1 := scaleRun(t, numCPUs, par, 200, 600, 48)
				fp2, nd2, res2 := scaleRun(t, numCPUs, par, 200, 600, 48)
				if fp1 != fp2 {
					t.Fatalf("archive fingerprint diverged: %#x vs %#x", fp1, fp2)
				}
				if !reflect.DeepEqual(nd1, nd2) {
					t.Fatalf("noise-draw census diverged:\n%v\n%v", nd1, nd2)
				}
				if !reflect.DeepEqual(res1, res2) {
					t.Fatalf("results diverged:\n%+v\n%+v", res1, res2)
				}
				if res1.Completed+res1.Aborted != 600 {
					t.Fatalf("transaction budget not honored: %+v", res1)
				}
			})
		}
	}
}

// TestEpochEngineSeedsDiffer is the negative control: different seeds must
// not collide on the fingerprint, or the suite above is vacuous.
func TestEpochEngineSeedsDiffer(t *testing.T) {
	srvFor := func(seed int64) uint64 {
		arch := newTestArchive(0)
		srv, err := dbms.NewServer(dbms.Config{
			Seed: seed, NoiseSigma: 0.03, Instrument: true,
			NumCPUs: 8, ProcessorParallelism: 2, Sink: arch.w,
			WAL: wal.Config{GroupSize: 16, FlushIntervalNS: 200_000},
		})
		if err != nil {
			t.Fatalf("server: %v", err)
		}
		gen := &SmallBank{Customers: 200}
		if err := gen.Setup(srv); err != nil {
			t.Fatalf("setup: %v", err)
		}
		srv.TS.Sampler().SetAllRates(100)
		res, err := Run(srv, gen, Config{
			Terminals: 100, Transactions: 300, Seed: seed, PoolSessions: 32,
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return goldenFingerprint(res, arch.points(t))
	}
	if srvFor(1) == srvFor(2) {
		t.Fatalf("different seeds produced identical fingerprints")
	}
}

// TestScaleSmoke is the scale smoke test: a thousand terminals
// multiplexed onto 96 pooled sessions on an 8-CPU kernel. The budget must
// be exactly honored, the admission gate must drain without leaking a
// single slot, queueing (not rejection) must absorb the terminal surplus,
// and the epoch engine must actually have run multi-CPU barriers.
func TestScaleSmoke(t *testing.T) {
	_, _, res := scaleRun(t, 8, 2, 1000, 3000, 96)
	if res.Completed+res.Aborted != 3000 {
		t.Fatalf("budget: completed %d + aborted %d != 3000", res.Completed, res.Aborted)
	}
	ad := res.Admission
	if ad.InUse != 0 || ad.Waiting != 0 {
		t.Fatalf("admission gate leaked slots at end of run: %+v", ad)
	}
	if ad.Admitted != 3000 {
		t.Fatalf("admitted %d, want 3000", ad.Admitted)
	}
	if ad.Queued == 0 || ad.MaxQueueDepth == 0 {
		t.Fatalf("1000 terminals on 96 slots never queued: %+v", ad)
	}
	if ad.Rejected != 0 {
		t.Fatalf("unbounded admission queue rejected %d terminals", ad.Rejected)
	}
	if res.Epochs == 0 || res.BarrierEvents < 3000 {
		t.Fatalf("epoch engine idle: epochs=%d barrierEvents=%d", res.Epochs, res.BarrierEvents)
	}
	if res.TrainingPoints == 0 || res.SamplesPerSec == 0 {
		t.Fatalf("instrumented scale run produced no training data: %+v", res)
	}
	if res.ElapsedNS <= 0 || res.ThroughputTPS <= 0 {
		t.Fatalf("degenerate timing: %+v", res)
	}
}

// TestPooledBoundedQueueRejects exercises the backpressure path end to end:
// with a tiny bounded admission queue, surplus terminals are refused and
// retry, yet the transaction budget still completes exactly.
func TestPooledBoundedQueueRejects(t *testing.T) {
	srv, err := dbms.NewServer(dbms.Config{
		Seed: 9, NoiseSigma: 0.03, Instrument: true,
		NumCPUs: 4, ProcessorParallelism: 2,
		WAL: wal.Config{GroupSize: 16, FlushIntervalNS: 200_000},
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	gen := &SmallBank{Customers: 200}
	if err := gen.Setup(srv); err != nil {
		t.Fatalf("setup: %v", err)
	}
	srv.TS.Sampler().SetAllRates(100)
	res, err := Run(srv, gen, Config{
		Terminals: 400, Transactions: 1200, Seed: 9,
		PoolSessions: 16, AdmissionQueueDepth: 8,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Completed+res.Aborted != 1200 {
		t.Fatalf("budget: %+v", res)
	}
	if res.Admission.Rejected == 0 {
		t.Fatalf("400 terminals on 16 slots + depth-8 queue never rejected: %+v", res.Admission)
	}
	if res.Admission.InUse != 0 || res.Admission.Waiting != 0 {
		t.Fatalf("gate leaked after rejections: %+v", res.Admission)
	}
}
