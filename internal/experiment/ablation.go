package experiment

import (
	"tscout/internal/dbms"
	"tscout/internal/model"
	"tscout/internal/tscout"
	"tscout/internal/wal"
	"tscout/internal/workload"
)

// The ablations probe the design choices DESIGN.md calls out: how much the
// measurement-noise amplitude, the group-commit policy, and TScout's
// per-query sampling granularity each contribute to the headline results.

// NoiseAblationRow is one point of the noise-amplitude sweep.
type NoiseAblationRow struct {
	Sigma float64
	// LogSerErrorUS is the offline model's error on online data: the
	// Fig. 2 effect must come from the batching gap, not from noise.
	LogSerOfflineUS float64
	LogSerOnlineUS  float64
}

// AblationNoise sweeps the measurement-noise amplitude and recomputes the
// Fig. 2 log-serializer comparison. The offline/online gap must persist at
// zero noise (it is structural: group-commit batching) and online error
// must grow with sigma (the irreducible floor).
func AblationNoise(sc Scale) ([]NoiseAblationRow, error) {
	var rows []NoiseAblationRow
	for _, sigma := range []float64{0, 0.02, 0.04, 0.08} {
		collect := func(seed int64, offline bool) ([]model.Point, error) {
			cfg := serverConfig(defaultProfile(), tscout.KernelContinuous, true, seed, offline)
			cfg.NoiseSigma = sigma
			if offline {
				return runOffline(cfg, sc)
			}
			run, err := runOnline(cfg, tpccGen(2), 100,
				workload.Config{Terminals: 16, Transactions: sc.OnlineTxns, Seed: seed}, newArchiveCapture(0))
			if err != nil {
				return nil, err
			}
			return run.Points, nil
		}
		offline, err := collect(201, true)
		if err != nil {
			return nil, err
		}
		online, err := collect(202, false)
		if err != nil {
			return nil, err
		}
		ls := tscout.SubsystemLogSerializer
		trainOn, testOn := model.SplitRows(model.FilterSub(online, ls), 0.2, 203)
		offUS, onUS, err := scoreSplits(model.FilterSub(offline, ls), split{trainOn, testOn})
		if err != nil {
			return nil, err
		}
		rows = append(rows, NoiseAblationRow{Sigma: sigma, LogSerOfflineUS: offUS[0], LogSerOnlineUS: onUS[0]})
	}
	return rows, nil
}

// GroupCommitAblationRow is one WAL-policy configuration.
type GroupCommitAblationRow struct {
	GroupSize        int
	FlushIntervalUS  int64
	ThroughputTPS    float64
	P99US            int64
	MeanBatchRecords float64
}

// AblationGroupCommit sweeps the WAL's group-commit policy under TPC-C.
// Larger groups amortize flush IO into bigger batches (the very batching
// effect whose absence from offline runner data drives Figs. 2/9), at the
// cost of commit tail latency; with an unsaturated log device the longer
// flush windows also stall clients, so throughput is highest at small
// group sizes here.
func AblationGroupCommit(sc Scale) ([]GroupCommitAblationRow, error) {
	var rows []GroupCommitAblationRow
	for _, cfg := range []wal.Config{
		{GroupSize: 1},
		{GroupSize: 4, FlushIntervalNS: 50_000},
		{GroupSize: 16, FlushIntervalNS: 200_000},
		{GroupSize: 64, FlushIntervalNS: 800_000},
	} {
		gen := tpccGen(2)
		// Uninstrumented: the sweep measures the log, not the collector.
		srv, err := startOnline(dbms.Config{
			Profile: defaultProfile(), Seed: 301, NoiseSigma: noiseSigma, WAL: cfg,
		}, gen, 0, nil)
		if err != nil {
			return nil, err
		}
		run, err := runWorkload(srv, gen, workload.Config{
			Terminals: 16, Transactions: sc.OnlineTxns, Seed: 302,
		}, nil)
		if err != nil {
			return nil, err
		}
		res := run.Result
		flushes, recs, _ := srv.WAL.Stats()
		row := GroupCommitAblationRow{
			GroupSize:       cfg.GroupSize,
			FlushIntervalUS: cfg.FlushIntervalNS / 1000,
			ThroughputTPS:   res.ThroughputTPS,
			P99US:           res.P99NS / 1000,
		}
		if flushes > 0 {
			row.MeanBatchRecords = float64(recs) / float64(flushes)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ExternalCollectionRow compares feature-collection strategies (§2.2).
type ExternalCollectionRow struct {
	Strategy      string
	ThroughputTPS float64
	P99US         int64
}

// AblationExternalCollection contrasts §2.2's approaches under TPC-C:
// no collection, TScout's internal markers at full rate, and EXPLAIN-based
// external collection (an extra planning round per statement, as QPPNet-
// style systems impose). The paper's argument is that external collection
// "slows down query execution, making it challenging to collect training
// data in an online setting".
func AblationExternalCollection(sc Scale) ([]ExternalCollectionRow, error) {
	var rows []ExternalCollectionRow
	for _, cfg := range []struct {
		name       string
		instrument bool
		rate       int
		external   bool
	}{
		{"no collection", false, 0, false},
		{"internal (TScout 100%)", true, 100, false},
		{"external (EXPLAIN/query)", false, 0, true},
	} {
		run, err := runOnline(serverConfig(defaultProfile(), tscout.KernelContinuous, cfg.instrument, 501, false),
			tpccGen(2), cfg.rate, workload.Config{
				Terminals: 16, Transactions: sc.OnlineTxns, Seed: 502,
				ExternalCollect: cfg.external,
			}, nil)
		if err != nil {
			return nil, err
		}
		res := run.Result
		rows = append(rows, ExternalCollectionRow{
			Strategy:      cfg.name,
			ThroughputTPS: res.ThroughputTPS,
			P99US:         res.P99NS / 1000,
		})
	}
	return rows, nil
}

// SamplingGranularityRow compares per-query sampling (TScout's design)
// against naive per-OU sampling at the same nominal rate.
type SamplingGranularityRow struct {
	Granularity   string
	ThroughputTPS float64
	P99US         int64
}

// AblationSamplingGranularity contrasts TScout's per-event (per-query)
// sampling decision with an "all or nothing" full-rate configuration —
// quantifying §3.1's claim that fine-grained, adjustable collection is
// what keeps the framework deployable.
func AblationSamplingGranularity(sc Scale) ([]SamplingGranularityRow, error) {
	var rows []SamplingGranularityRow
	for _, cfg := range []struct {
		name string
		rate int
	}{
		{"off", 0},
		{"per-query 10%", 10},
		{"all-or-nothing 100%", 100},
	} {
		run, err := runOnline(serverConfig(defaultProfile(), tscout.KernelContinuous, true, 401, false),
			tpccGen(2), cfg.rate, workload.Config{Terminals: 16, Transactions: sc.OnlineTxns, Seed: 402}, nil)
		if err != nil {
			return nil, err
		}
		res := run.Result
		rows = append(rows, SamplingGranularityRow{
			Granularity:   cfg.name,
			ThroughputTPS: res.ThroughputTPS,
			P99US:         res.P99NS / 1000,
		})
	}
	return rows, nil
}
