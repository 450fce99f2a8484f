// Command tsbench regenerates the paper's tables and figures against the
// simulated substrate and prints the rows/series each figure plots.
//
// Usage:
//
//	tsbench [-full] fig1|fig2|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|summary|ablations|frontier|all
//
// The default quick scale finishes in seconds per figure; -full uses the
// EXPERIMENTS.md scale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tscout/internal/experiment"
)

func main() {
	full := flag.Bool("full", false, "run at the EXPERIMENTS.md scale (slower)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tsbench [-full] <figure>\n"+
			"figures: fig1 fig2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 summary ablations frontier all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	sc := experiment.Quick
	if *full {
		sc = experiment.Full
	}
	which := strings.ToLower(flag.Arg(0))
	if err := run(os.Stdout, which, sc); err != nil {
		fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, which string, sc experiment.Scale) error {
	all := which == "all"
	did := false
	// Paper order, not map order: `tsbench all` must run (and print) the
	// figures in the same sequence every time.
	figures := []struct {
		name string
		fn   func(io.Writer, experiment.Scale) error
	}{
		{"fig1", fig1}, {"fig2", fig2}, {"fig5", fig5}, {"fig6", fig6},
		{"fig7", fig7}, {"fig8", fig8}, {"fig9", fig9}, {"fig10", fig10},
		{"fig11", fig11}, {"fig12", fig12}, {"summary", summary},
		{"ablations", ablations}, {"frontier", frontier},
	}
	for _, fig := range figures {
		name, fn := fig.name, fig.fn
		if all || which == name {
			did = true
			if err := fn(w, sc); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	if !did {
		return fmt.Errorf("unknown figure %q", which)
	}
	return nil
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

func fig1(w io.Writer, sc experiment.Scale) error {
	rows, err := experiment.Fig1(sc)
	if err != nil {
		return err
	}
	header(w, "Figure 1: TPC-C p99 latency by collection method (1 client)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8.3f ms\n", r.Config, r.P99Ms)
	}
	return nil
}

func fig2(w io.Writer, sc experiment.Scale) error {
	rows, err := experiment.Fig2(sc)
	if err != nil {
		return err
	}
	header(w, "Figure 2: offline vs online training data (TPC-C, 20% template holdout)")
	printSubsystemRows(w, rows)
	return nil
}

func printSubsystemRows(w io.Writer, rows []experiment.SubsystemRow) {
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %10s\n",
		"scenario", "subsystem", "offline(us)", "online(us)", "reduction")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-18s %12.2f %12.2f %9.1f%%\n",
			r.Scenario, r.Subsystem.String(), r.OfflineUS, r.OnlineUS, r.ReductionPct)
	}
}

func fig56rows(sc experiment.Scale) ([]experiment.OverheadRow, error) {
	return experiment.Fig5and6(sc)
}

func fig5(w io.Writer, sc experiment.Scale) error {
	rows, err := fig56rows(sc)
	if err != nil {
		return err
	}
	header(w, "Figure 5: transaction throughput vs sampling rate (20 clients)")
	printOverhead(w, rows, func(r experiment.OverheadRow) float64 { return r.ThroughputTPS / 1000 }, "k txns/s")
	return nil
}

func fig6(w io.Writer, sc experiment.Scale) error {
	rows, err := fig56rows(sc)
	if err != nil {
		return err
	}
	header(w, "Figure 6: training-data generation vs sampling rate (20 clients)")
	printOverhead(w, rows, func(r experiment.OverheadRow) float64 { return r.SamplesPerSec / 1000 }, "k samples/s")
	fmt.Fprintln(w, "\nPipeline drop fraction (ring overwrite + queue overflow), from Processor telemetry:")
	printOverhead(w, rows, func(r experiment.OverheadRow) float64 { return r.Stats.DropFraction() * 100 }, "% dropped")
	return nil
}

func printOverhead(w io.Writer, rows []experiment.OverheadRow, metric func(experiment.OverheadRow) float64, unit string) {
	// Group by workload, then mode; columns are rates.
	var rates []int
	seen := map[int]bool{}
	for _, r := range rows {
		if !seen[r.Rate] {
			seen[r.Rate] = true
			rates = append(rates, r.Rate)
		}
	}
	byKey := map[string]map[int]float64{}
	var order []string
	for _, r := range rows {
		k := fmt.Sprintf("%-12s %-17s", r.Workload, r.Mode)
		if byKey[k] == nil {
			byKey[k] = map[int]float64{}
			order = append(order, k)
		}
		byKey[k][r.Rate] = metric(r)
	}
	fmt.Fprintf(w, "%-30s", "workload/mode \\ rate%")
	for _, rate := range rates {
		fmt.Fprintf(w, " %8d", rate)
	}
	fmt.Fprintf(w, "   (%s)\n", unit)
	for _, k := range order {
		fmt.Fprintf(w, "%-30s", k)
		for _, rate := range rates {
			fmt.Fprintf(w, " %8.1f", byKey[k][rate])
		}
		fmt.Fprintln(w)
	}
}

func fig7(w io.Writer, sc experiment.Scale) error {
	rows, err := experiment.Fig7(sc)
	if err != nil {
		return err
	}
	header(w, "Figure 7: adapting to environment changes (hardware migration)")
	printSubsystemRows(w, rows)
	return nil
}

func fig8(w io.Writer, sc experiment.Scale) error {
	rows, err := experiment.Fig8(sc)
	if err != nil {
		return err
	}
	header(w, "Figure 8: adjustable sampling timeline (YCSB, 20 clients)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %10.0f txns/s   points=%d drops=%d polls=%d\n",
			r.Phase, r.ThroughputTPS,
			r.Stats.Processed, r.Stats.TotalDropped(), r.Stats.Polls)
	}
	return nil
}

func printConvergence(w io.Writer, rows []experiment.ConvergenceRow) {
	fmt.Fprintf(w, "%-18s %10s %12s %12s\n", "subsystem", "data size", "offline(us)", "online(us)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %10d %12.2f %12.2f\n",
			r.Subsystem.String(), r.DataSize, r.OfflineUS, r.OnlineUS)
	}
}

func fig9(w io.Writer, sc experiment.Scale) error {
	rows, err := experiment.Fig9(sc)
	if err != nil {
		return err
	}
	header(w, "Figure 9: model convergence (TPC-C)")
	printConvergence(w, rows)
	return nil
}

func fig10(w io.Writer, sc experiment.Scale) error {
	rows, err := experiment.Fig10(sc)
	if err != nil {
		return err
	}
	header(w, "Figure 10: model convergence (CH-benCHmark)")
	printConvergence(w, rows)
	return nil
}

func fig11(w io.Writer, sc experiment.Scale) error {
	rows, err := experiment.Fig11(sc)
	if err != nil {
		return err
	}
	header(w, "Figure 11: execution-engine improvement vs client count (TPC-C)")
	fmt.Fprintf(w, "%10s %10s %12s %12s %10s\n", "terminals", "data size", "offline(us)", "online(us)", "reduction")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %10d %12.2f %12.2f %9.1f%%\n",
			r.Terminals, r.DataSize, r.OfflineUS, r.OnlineUS, r.ReductionPct)
	}
	return nil
}

func fig12(w io.Writer, sc experiment.Scale) error {
	rows, err := experiment.Fig12(sc)
	if err != nil {
		return err
	}
	header(w, "Figure 12: model generalization across deployment scenarios")
	printSubsystemRows(w, rows)
	return nil
}

func ablations(w io.Writer, sc experiment.Scale) error {
	noise, err := experiment.AblationNoise(sc)
	if err != nil {
		return err
	}
	header(w, "Ablation: measurement-noise amplitude (log-serializer Fig. 2 effect)")
	fmt.Fprintf(w, "%8s %14s %14s\n", "sigma", "offline(us)", "online(us)")
	for _, r := range noise {
		fmt.Fprintf(w, "%8.2f %14.2f %14.2f\n", r.Sigma, r.LogSerOfflineUS, r.LogSerOnlineUS)
	}

	gc, err := experiment.AblationGroupCommit(sc)
	if err != nil {
		return err
	}
	header(w, "Ablation: group-commit policy (TPC-C, 16 clients)")
	fmt.Fprintf(w, "%10s %12s %14s %10s %14s\n",
		"group", "interval(us)", "k txns/s", "p99(us)", "recs/flush")
	for _, r := range gc {
		fmt.Fprintf(w, "%10d %12d %14.1f %10d %14.1f\n",
			r.GroupSize, r.FlushIntervalUS, r.ThroughputTPS/1000, r.P99US, r.MeanBatchRecords)
	}

	sg, err := experiment.AblationSamplingGranularity(sc)
	if err != nil {
		return err
	}
	header(w, "Ablation: sampling granularity (TPC-C, 16 clients)")
	for _, r := range sg {
		fmt.Fprintf(w, "%-22s %10.0f txns/s  p99=%dus\n", r.Granularity, r.ThroughputTPS, r.P99US)
	}

	ec, err := experiment.AblationExternalCollection(sc)
	if err != nil {
		return err
	}
	header(w, "Ablation: internal vs external feature collection (§2.2, TPC-C, 16 clients)")
	for _, r := range ec {
		fmt.Fprintf(w, "%-26s %10.0f txns/s  p99=%dus\n", r.Strategy, r.ThroughputTPS, r.P99US)
	}
	return nil
}

func frontier(w io.Writer, sc experiment.Scale) error {
	rows, err := experiment.Frontier(sc)
	if err != nil {
		return err
	}
	header(w, "Error-vs-overhead frontier: fixed sampling vs autopilot (TPC-C, 20 clients)")
	fmt.Fprintf(w, "%-12s %12s %10s %10s %12s %-16s %8s %6s\n",
		"policy", "k txns/s", "overhead", "rows", "error(us)", "final rates", "epochs", "drift")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12.1f %9.2f%% %10d %12.2f %-16s %8d %6d\n",
			r.Policy, r.ThroughputTPS/1000, r.OverheadPct, r.TrainingRows,
			r.ErrorUS, fmt.Sprint(r.FinalRates), r.Epochs, r.DriftEvents)
	}
	return nil
}

func summary(w io.Writer, _ experiment.Scale) error {
	s, err := experiment.Summary()
	if err != nil {
		return err
	}
	header(w, "Section 6.2 headline claims")
	fmt.Fprintf(w, "Kernel-Continuous overhead at 10%% sampling: %5.1f%%  (paper: ~7%%)\n",
		s.KernelOverheadPctAt10)
	fmt.Fprintf(w, "Peak collection rate, kernel vs best user:  %5.1fx  (paper: ~3x)\n",
		s.KernelPeakSamplesPerSec/s.BestUserSamplesPerSec)
	fmt.Fprintf(w, "  kernel peak:    %10.0f samples/s\n", s.KernelPeakSamplesPerSec)
	fmt.Fprintf(w, "  best user-mode: %10.0f samples/s\n", s.BestUserSamplesPerSec)
	return nil
}
