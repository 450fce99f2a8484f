package experiment

import (
	"tscout/internal/tscout"
	"tscout/internal/workload"
)

// Fig1Row is one bar of Figure 1: TPC-C transaction p99 latency under a
// metrics-collection configuration.
type Fig1Row struct {
	Config string
	P99Ms  float64
}

// Fig1 reproduces Figure 1 (user-space vs kernel-space metrics
// collection): TPC-C with a single client under (1) collection disabled,
// (2) user-space collection, (3) kernel-space collection. The paper's
// shape: none < kernel < user.
func Fig1(sc Scale) ([]Fig1Row, error) {
	configs := []struct {
		name string
		mode tscout.Mode
		rate int
	}{
		{"No Metrics", tscout.KernelContinuous, 0},
		{"User-space", tscout.UserToggle, 100},
		{"Kernel-space", tscout.KernelContinuous, 100},
	}
	var rows []Fig1Row
	for _, c := range configs {
		run, err := runOnline(serverConfig(defaultProfile(), c.mode, true, 42, false), tpccGen(1), c.rate,
			workload.Config{Terminals: 1, Transactions: sc.OnlineTxns, Seed: 42}, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig1Row{Config: c.name, P99Ms: float64(run.Result.P99NS) / 1e6})
	}
	return rows, nil
}

// OverheadRow is one point of Figures 5 and 6: throughput and
// training-data generation rate at a sampling rate, per collection mode.
type OverheadRow struct {
	Workload      string
	Mode          tscout.Mode
	Rate          int
	ThroughputTPS float64
	SamplesPerSec float64
	// Stats is the Processor's end-of-run pipeline telemetry: drop
	// fractions and budget degradation explain the peak-then-decline of
	// Fig. 6 directly from the collector's own counters.
	Stats tscout.ProcessorStats
}

// fig56Workloads builds the four OLTP workloads of §6.2. TPC-C's
// 200-warehouse database is represented by the scaled 8-warehouse
// configuration (DESIGN.md).
func fig56Workloads() []workload.Generator {
	return []workload.Generator{
		&workload.YCSB{Records: 4000},
		&workload.SmallBank{Customers: 1000},
		&workload.TATP{Subscribers: 1000},
		tpccGen(8),
	}
}

// Fig5and6 reproduces Figures 5 (transaction throughput vs sampling rate)
// and 6 (training-data samples/s vs sampling rate) for the three
// collection methods across the four OLTP workloads, 20 clients each.
func Fig5and6(sc Scale) ([]OverheadRow, error) {
	var rows []OverheadRow
	for _, gen := range fig56Workloads() {
		for _, mode := range []tscout.Mode{
			tscout.KernelContinuous, tscout.UserToggle, tscout.UserContinuous,
		} {
			for _, rate := range sc.RatePoints {
				run, err := runOnline(serverConfig(defaultProfile(), mode, true, 99, false), gen, rate,
					workload.Config{Terminals: 20, Transactions: sc.OnlineTxns, Seed: 99}, nil)
				if err != nil {
					return nil, err
				}
				res := run.Result
				rows = append(rows, OverheadRow{
					Workload:      gen.Name(),
					Mode:          mode,
					Rate:          rate,
					ThroughputTPS: res.ThroughputTPS,
					SamplesPerSec: res.SamplesPerSec,
					Stats:         res.Processor,
				})
			}
		}
	}
	return rows, nil
}

// Fig8Row is one phase of Figure 8's adjustable-sampling timeline.
type Fig8Row struct {
	Phase         string
	Rates         map[tscout.SubsystemID]int
	ThroughputTPS float64
	// Stats snapshots the Processor pipeline at the end of the phase.
	Stats tscout.ProcessorStats
}

// Fig8 reproduces Figure 8 (adjustable sampling): YCSB runs through three
// phases — no collection, 10% on all four subsystems, then 10% only on
// the WAL subsystems. Throughput dips in the middle phase and recovers in
// the third because YCSB is read-only and generates almost no WAL work.
func Fig8(sc Scale) ([]Fig8Row, error) {
	gen := &workload.YCSB{Records: 4000}
	srv, err := startOnline(serverConfig(defaultProfile(), tscout.KernelContinuous, true, 8, false), gen, 0, nil)
	if err != nil {
		return nil, err
	}
	phases := []struct {
		name  string
		rates map[tscout.SubsystemID]int
	}{
		{"collection off", map[tscout.SubsystemID]int{}},
		{"10% all subsystems", map[tscout.SubsystemID]int{
			tscout.SubsystemExecutionEngine: 10, tscout.SubsystemNetworking: 10,
			tscout.SubsystemLogSerializer: 10, tscout.SubsystemDiskWriter: 10,
		}},
		{"10% WAL only", map[tscout.SubsystemID]int{
			tscout.SubsystemLogSerializer: 10, tscout.SubsystemDiskWriter: 10,
		}},
	}
	var rows []Fig8Row
	for i, ph := range phases {
		srv.TS.Sampler().SetAllRates(0)
		for sub, rate := range ph.rates {
			srv.TS.Sampler().SetRate(sub, rate)
		}
		run, err := runWorkload(srv, gen, workload.Config{
			Terminals: 20, Transactions: sc.OnlineTxns, Seed: int64(100 + i),
		}, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{
			Phase: ph.name, Rates: ph.rates,
			ThroughputTPS: run.Result.ThroughputTPS, Stats: run.Result.Processor,
		})
	}
	return rows, nil
}

// SummaryRow captures the §6.2 headline claims derived from Figs. 5/6.
type SummaryRow struct {
	// KernelOverheadPctAt10 is the throughput loss of the recommended
	// configuration (Kernel-Continuous at 10%) vs no collection.
	KernelOverheadPctAt10 float64
	// KernelPeakSamplesPerSec and BestUserSamplesPerSec compare peak
	// data-generation rates (the paper's ~3x claim).
	KernelPeakSamplesPerSec float64
	BestUserSamplesPerSec   float64
}

// Summary computes the paper's §6.2 claims on the YCSB workload: ~7%
// overhead at the recommended setting and a ~3x collection-rate advantage
// for Kernel-Continuous.
func Summary() (*SummaryRow, error) {
	run := func(mode tscout.Mode, rate int) (float64, float64, error) {
		r, err := runOnline(serverConfig(defaultProfile(), mode, true, 7, false), &workload.YCSB{Records: 4000}, rate,
			workload.Config{Terminals: 20, Transactions: Quick.OnlineTxns, Seed: 7}, nil)
		if err != nil {
			return 0, 0, err
		}
		return r.Result.ThroughputTPS, r.Result.SamplesPerSec, nil
	}
	base, _, err := run(tscout.KernelContinuous, 0)
	if err != nil {
		return nil, err
	}
	at10, _, err := run(tscout.KernelContinuous, 10)
	if err != nil {
		return nil, err
	}
	out := &SummaryRow{KernelOverheadPctAt10: (base - at10) / base * 100}
	for _, rate := range []int{10, 20, 30} {
		if _, sps, err := run(tscout.KernelContinuous, rate); err == nil && sps > out.KernelPeakSamplesPerSec {
			out.KernelPeakSamplesPerSec = sps
		}
	}
	for _, mode := range []tscout.Mode{tscout.UserToggle, tscout.UserContinuous} {
		for _, rate := range []int{10, 30, 100} {
			if _, sps, err := run(mode, rate); err == nil && sps > out.BestUserSamplesPerSec {
				out.BestUserSamplesPerSec = sps
			}
		}
	}
	return out, nil
}
