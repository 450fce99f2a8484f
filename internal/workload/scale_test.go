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
// package with the detector on, so package state that parallel simulations
// share shows up as a race, and nondeterminism in the barrier merge as a
// mismatch).

// scaleServer builds the server for cfg, loads a SmallBank database of the
// given size and samples every subsystem at 100%.
func scaleServer(tb testing.TB, cfg dbms.Config, customers int) (*dbms.Server, *SmallBank) {
	tb.Helper()
	srv, err := dbms.NewServer(cfg)
	if err != nil {
		tb.Fatalf("server: %v", err)
	}
	gen := &SmallBank{Customers: customers}
	if err := gen.Setup(srv); err != nil {
		tb.Fatalf("setup: %v", err)
	}
	srv.TS.Sampler().SetAllRates(100)
	return srv, gen
}

// scaleRun executes one pooled SmallBank run on a fresh server and returns
// the archive fingerprint, the kernel's per-CPU noise-draw census, and the
// full Result.
func scaleRun(t *testing.T, seed int64, numCPUs, par, terminals, txns, pool int) (uint64, []uint64, Result) {
	t.Helper()
	arch := newTestArchive(0)
	srv, gen := scaleServer(t, dbms.Config{
		Seed: seed, NoiseSigma: 0.03, Instrument: true,
		NumCPUs: numCPUs, ProcessorParallelism: par, Sink: arch.w,
		WAL: wal.Config{GroupSize: 16, FlushIntervalNS: 200_000},
	}, 200)
	res, err := Run(srv, gen, Config{
		Terminals: terminals, Transactions: txns, Seed: seed, PoolSessions: pool,
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
				fp1, nd1, res1 := scaleRun(t, 42, numCPUs, par, 200, 600, 48)
				fp2, nd2, res2 := scaleRun(t, 42, numCPUs, par, 200, 600, 48)
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
	fingerprint := func(seed int64) uint64 {
		fp, _, _ := scaleRun(t, seed, 8, 2, 100, 300, 32)
		return fp
	}
	if fingerprint(1) == fingerprint(2) {
		t.Fatalf("different seeds produced identical fingerprints")
	}
}

// TestScaleSmoke is the scale smoke test: a thousand terminals
// multiplexed onto 96 pooled sessions on an 8-CPU kernel. The budget must
// be exactly honored, the admission gate must drain without leaking a
// single slot, queueing (not rejection) must absorb the terminal surplus,
// and the epoch engine must actually have run multi-CPU barriers.
func TestScaleSmoke(t *testing.T) {
	_, _, res := scaleRun(t, 42, 8, 2, 1000, 3000, 96)
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
	srv, gen := scaleServer(t, dbms.Config{
		Seed: 9, NoiseSigma: 0.03, Instrument: true,
		NumCPUs: 4, ProcessorParallelism: 2,
		WAL: wal.Config{GroupSize: 16, FlushIntervalNS: 200_000},
	}, 200)
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

// BenchmarkEndToEndNumCPUs is the multi-core scale-out headline: the same
// instrumented SmallBank load — 2000 terminals multiplexed onto a fixed
// 128-session pool behind the admission gate — run on 1, 8, 32, and 64
// simulated CPUs under the pooled epoch/barrier driver. Drain parallelism
// scales with the topology (one thread per four CPUs). The metrics are
// virtual-time training-sample and transaction throughput; sample
// throughput must scale ≥3x from 1 to 8 CPUs and keep improving at 32
// (EXPERIMENTS.md records the reference numbers).
//
// The WAL runs large commit groups on a short flush interval: pooled runs
// are commit-latency-bound, so keeping group formation fast is what lets
// the CPU topology — not the log — be the binding constraint.
func BenchmarkEndToEndNumCPUs(b *testing.B) {
	for _, numCPUs := range []int{1, 8, 32, 64} {
		par := numCPUs / 4
		if par < 1 {
			par = 1
		}
		b.Run(fmt.Sprintf("cpus=%d", numCPUs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				srv, gen := scaleServer(b, dbms.Config{
					Seed: 21, NoiseSigma: 0.03, Instrument: true,
					NumCPUs: numCPUs, ProcessorParallelism: par,
					WAL: wal.Config{GroupSize: 32, FlushIntervalNS: 25_000},
				}, 1000)
				res, err := Run(srv, gen, Config{
					Terminals: 2000, Transactions: 6000, Seed: 21, PoolSessions: 128,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.SamplesPerSec, "samples/vsec")
				b.ReportMetric(res.ThroughputTPS, "txn/vsec")
			}
		})
	}
}

// BenchmarkPooledTerminals is what a terminal costs the host: the same
// 20 000 uninstrumented SmallBank transactions on 128 pooled sessions and 8
// CPUs, from 200, 2 000 and 20 000 terminals. No TScout, so the figure is
// the driver, the gate and the DBMS under them; an epoch that costs its
// state changes rather than its terminal census keeps ns/txn close to flat
// (what is left at 20 000 is seeding that many terminal RNGs).
// EXPERIMENTS.md records the table.
func BenchmarkPooledTerminals(b *testing.B) {
	const txns = 20_000
	for _, terminals := range []int{200, 2000, 20000} {
		b.Run(fmt.Sprintf("terminals=%d", terminals), func(b *testing.B) {
			var epochs int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srv, err := dbms.NewServer(dbms.Config{
					Seed: 21, NoiseSigma: 0.03, NumCPUs: 8,
					WAL: wal.Config{GroupSize: 32, FlushIntervalNS: 25_000},
				})
				if err != nil {
					b.Fatal(err)
				}
				gen := &SmallBank{Customers: 1000}
				if err := gen.Setup(srv); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := Run(srv, gen, Config{
					Terminals: terminals, Transactions: txns, Seed: 21, PoolSessions: 128,
				})
				if err != nil {
					b.Fatal(err)
				}
				epochs = res.Epochs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*txns), "ns/txn")
			b.ReportMetric(float64(epochs), "epochs")
		})
	}
}
