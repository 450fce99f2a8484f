package experiment

import (
	"fmt"
	"io"
)

// Figures names every figure Render draws, in paper order (the §6.2
// summary right after Figs. 5/6, beside which the paper states it; Summary
// runs a YCSB sweep of its own at seed 7, kernel rates 0/10/20/30 % and
// user rates 10/30/100 %): `tsbench all` prints them in this order, and
// EXPERIMENTS.md records each one's output at Quick scale as a fenced
// block, in the same order.
var Figures = []string{
	"fig1", "fig2", "fig5", "fig6", "summary", "fig7", "fig8", "fig9", "fig10", "fig11",
	"fig12", "ablation-noise", "ablation-group-commit", "ablation-granularity",
	"ablation-external", "frontier",
}

// Render runs figure's experiment at sc and writes the rows it plots; "all"
// writes every figure in Figures' order, running the Figs. 5/6 sweep once
// for both. An unknown figure is an error and writes nothing.
func Render(w io.Writer, figure string, sc Scale) error {
	names := []string{figure}
	if figure == "all" {
		names = Figures
	}
	var overhead []OverheadRow
	fig56 := func(sc Scale) ([]OverheadRow, error) {
		var err error
		if overhead == nil {
			overhead, err = Fig5and6(sc)
		}
		return overhead, err
	}
	for _, name := range names {
		var err error
		switch name {
		case "fig1":
			err = draw(w, sc, Fig1, renderFig1)
		case "fig2":
			err = draw(w, sc, Fig2, renderFig2)
		case "fig5":
			err = draw(w, sc, fig56, renderFig5)
		case "fig6":
			err = draw(w, sc, fig56, renderFig6)
		case "summary":
			err = draw(w, sc, Summary, renderSummary)
		case "fig7":
			err = draw(w, sc, Fig7, renderFig7)
		case "fig8":
			err = draw(w, sc, Fig8, renderFig8)
		case "fig9":
			err = draw(w, sc, Fig9, renderFig9)
		case "fig10":
			err = draw(w, sc, Fig10, renderFig10)
		case "fig11":
			err = draw(w, sc, Fig11, renderFig11)
		case "fig12":
			err = draw(w, sc, Fig12, renderFig12)
		case "ablation-noise":
			err = draw(w, sc, AblationNoise, renderAblationNoise)
		case "ablation-group-commit":
			err = draw(w, sc, AblationGroupCommit, renderAblationGroupCommit)
		case "ablation-granularity":
			err = draw(w, sc, AblationSamplingGranularity, renderAblationGranularity)
		case "ablation-external":
			err = draw(w, sc, AblationExternalCollection, renderAblationExternal)
		case "frontier":
			err = draw(w, sc, Frontier, renderFrontier)
		default:
			return fmt.Errorf("unknown figure %q", name)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// draw runs an experiment at sc and writes its rows with write.
func draw[R any](w io.Writer, sc Scale, run func(Scale) (R, error), write func(io.Writer, R)) error {
	rows, err := run(sc)
	if err != nil {
		return err
	}
	write(w, rows)
	return nil
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "=== %s ===\n", title)
}

func renderFig1(w io.Writer, rows []Fig1Row) {
	header(w, "Figure 1: TPC-C p99 latency by collection method (1 client)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8.3f ms\n", r.Config, r.P99Ms)
	}
}

func renderFig2(w io.Writer, rows []SubsystemRow) {
	header(w, "Figure 2: offline vs online training data (TPC-C, 5-fold template cross-validation)")
	renderSubsystemRows(w, rows)
}

func renderFig7(w io.Writer, rows []SubsystemRow) {
	header(w, "Figure 7: adapting to environment changes (hardware migration)")
	renderSubsystemRows(w, rows)
}

func renderFig12(w io.Writer, rows []SubsystemRow) {
	header(w, "Figure 12: model generalization across deployment scenarios")
	renderSubsystemRows(w, rows)
}

func renderSubsystemRows(w io.Writer, rows []SubsystemRow) {
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %10s\n",
		"scenario", "subsystem", "offline(us)", "online(us)", "reduction")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-18s %12.2f %12.2f %9.1f%%\n",
			r.Scenario, r.Subsystem.String(), r.OfflineUS, r.OnlineUS, r.ReductionPct)
	}
}

func renderFig5(w io.Writer, rows []OverheadRow) {
	header(w, "Figure 5: transaction throughput vs sampling rate (20 clients)")
	renderOverhead(w, rows, func(r OverheadRow) float64 { return r.ThroughputTPS / 1000 }, "k txns/s")
}

func renderFig6(w io.Writer, rows []OverheadRow) {
	header(w, "Figure 6: training-data generation vs sampling rate (20 clients)")
	renderOverhead(w, rows, func(r OverheadRow) float64 { return r.SamplesPerSec / 1000 }, "k samples/s")
	fmt.Fprintln(w, "\nPipeline drop fraction (ring overwrite), from Processor telemetry:")
	renderOverhead(w, rows, func(r OverheadRow) float64 { return r.DropPct }, "% dropped")
}

// renderOverhead writes one line per (workload, mode), in row order, with
// a column per rate.
func renderOverhead(w io.Writer, rows []OverheadRow, metric func(OverheadRow) float64, unit string) {
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

func renderFig8(w io.Writer, rows []Fig8Row) {
	header(w, "Figure 8: adjustable sampling timeline (YCSB, 20 clients)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %10.0f txns/s   points=%d drops=%d polls=%d\n",
			r.Phase, r.ThroughputTPS, r.Points, r.Drops, r.Polls)
	}
}

func renderFig9(w io.Writer, rows []ConvergenceRow) {
	header(w, "Figure 9: model convergence (TPC-C)")
	renderConvergence(w, rows)
}

func renderFig10(w io.Writer, rows []ConvergenceRow) {
	header(w, "Figure 10: model convergence (CH-benCHmark)")
	renderConvergence(w, rows)
}

func renderConvergence(w io.Writer, rows []ConvergenceRow) {
	fmt.Fprintf(w, "%-18s %10s %12s %12s\n", "subsystem", "data size", "offline(us)", "online(us)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %10d %12.2f %12.2f\n",
			r.Subsystem.String(), r.DataSize, r.OfflineUS, r.OnlineUS)
	}
}

func renderFig11(w io.Writer, rows []Fig11Row) {
	header(w, "Figure 11: execution-engine improvement vs client count (TPC-C)")
	fmt.Fprintf(w, "%10s %10s %12s %12s %10s\n", "terminals", "data size", "offline(us)", "online(us)", "reduction")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %10d %12.2f %12.2f %9.1f%%\n",
			r.Terminals, r.DataSize, r.OfflineUS, r.OnlineUS, r.ReductionPct)
	}
}

func renderSummary(w io.Writer, s *SummaryRow) {
	header(w, "Section 6.2 headline claims")
	fmt.Fprintf(w, "Kernel-Continuous overhead at 10%% sampling: %5.1f%%  (paper: ~7%%)\n",
		s.KernelOverheadPctAt10)
	fmt.Fprintf(w, "Peak collection rate, kernel vs best user:  %5.1fx  (paper: ~3x)\n",
		s.KernelPeakSamplesPerSec/s.BestUserSamplesPerSec)
	fmt.Fprintf(w, "  kernel peak:    %10.0f samples/s\n", s.KernelPeakSamplesPerSec)
	fmt.Fprintf(w, "  best user-mode: %10.0f samples/s\n", s.BestUserSamplesPerSec)
}

func renderAblationNoise(w io.Writer, rows []NoiseAblationRow) {
	header(w, "Ablation: measurement-noise amplitude (log-serializer Fig. 2 effect)")
	fmt.Fprintf(w, "%8s %14s %14s\n", "sigma", "offline(us)", "online(us)")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.2f %14.2f %14.2f\n", r.Sigma, r.LogSerOfflineUS, r.LogSerOnlineUS)
	}
}

func renderAblationGroupCommit(w io.Writer, rows []GroupCommitAblationRow) {
	header(w, "Ablation: group-commit policy (TPC-C, 16 clients)")
	fmt.Fprintf(w, "%10s %12s %14s %10s %14s\n",
		"group", "interval(us)", "k txns/s", "p99(us)", "recs/flush")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %12d %14.1f %10d %14.1f\n",
			r.GroupSize, r.FlushIntervalUS, r.ThroughputTPS/1000, r.P99US, r.MeanBatchRecords)
	}
}

func renderAblationGranularity(w io.Writer, rows []SamplingGranularityRow) {
	header(w, "Ablation: sampling granularity (TPC-C, 16 clients)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %10.0f txns/s  p99=%dus\n", r.Granularity, r.ThroughputTPS, r.P99US)
	}
}

func renderAblationExternal(w io.Writer, rows []ExternalCollectionRow) {
	header(w, "Ablation: internal vs external feature collection (§2.2, TPC-C, 16 clients)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %10.0f txns/s  p99=%dus\n", r.Strategy, r.ThroughputTPS, r.P99US)
	}
}

func renderFrontier(w io.Writer, rows []FrontierRow) {
	header(w, "Error-vs-overhead frontier: fixed sampling vs autopilot (TPC-C, 20 clients)")
	fmt.Fprintf(w, "%-12s %12s %10s %10s %12s %-16s %8s %6s\n",
		"policy", "k txns/s", "overhead", "rows", "error(us)", "final rates", "epochs", "drift")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12.1f %9.2f%% %10d %12.2f %-16s %8d %6d\n",
			r.Policy, r.ThroughputTPS/1000, r.OverheadPct, r.TrainingRows,
			r.ErrorUS, fmt.Sprint(r.FinalRates), r.Epochs, r.DriftEvents)
	}
}
