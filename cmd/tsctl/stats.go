package main

import (
	"fmt"
	"strings"

	"tscout/internal/bpf"
	"tscout/internal/tscout"
)

// formatProcessorStats renders the Processor's self-observability snapshot
// as the `tsctl stats` telemetry block: one row per drain shard (one per
// subsystem), followed by the budget footer. Split
// from main so the layout is unit-testable.
func formatProcessorStats(st tscout.ProcessorStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %10s %10s %10s %8s %8s %8s %8s\n",
		"shard", "submitted", "drained", "dropped", "decerr", "padded", "trunc", "points")
	shardRow := func(name string, s tscout.SubsystemStats) {
		fmt.Fprintf(&b, "%-18s %10d %10d %10d %8d %8d %8d %8d\n",
			name, s.Submitted, s.Drained, s.Dropped,
			s.DecodeErrors, s.PaddedFeatures, s.TruncatedFeatures, s.Points)
	}
	for _, sub := range tscout.AllSubsystems {
		shardRow(sub.String(), st.Kernel[sub])
	}
	fmt.Fprintf(&b, "\npolls=%d parallelism=%d global-budget=%d effective-budget=%d\n",
		st.Polls, st.Parallelism, st.GlobalBudget, st.EffectiveBudget)
	fmt.Fprintf(&b, "feedback-actions=%d processed=%d\n", st.FeedbackActions, st.Processed)
	fmt.Fprintf(&b, "drop-fraction=%.3f\n", st.DropFraction())

	// Per-CPU ring telemetry only renders on multi-CPU deployments (with
	// one CPU the single ring duplicates the shard aggregate above), and
	// only rings that saw traffic get a row — a 40-core kernel has 160
	// rings and the quiet ones are noise. A footer counts what was elided.
	// Each row's high is the ring's high water, which is what sets the
	// ring's host memory (bpf.RingStats.HighWater).
	multiCPU := false
	for i := range st.Rings {
		multiCPU = multiCPU || len(st.Rings[i]) > 1
	}
	if multiCPU {
		fmt.Fprintf(&b, "\nper-cpu rings (active only):\n")
		fmt.Fprintf(&b, "%-18s %5s %10s %10s %10s %6s\n", "subsystem", "cpu", "submitted", "drained", "dropped", "high")
		quiet := 0
		for _, sub := range tscout.AllSubsystems {
			for cpu, rs := range st.Rings[sub] {
				if rs.Submitted == 0 && rs.Drained == 0 && rs.Dropped == 0 {
					quiet++
					continue
				}
				fmt.Fprintf(&b, "%-18s %5d %10d %10d %10d %6d\n",
					sub.String(), cpu, rs.Submitted, rs.Drained, rs.Dropped, rs.HighWater)
			}
		}
		fmt.Fprintf(&b, "quiet-rings=%d\n", quiet)
	}

	// Batch-size histogram: skipped while all buckets are zero (nothing
	// has been drained yet, or the snapshot predates the batched drain).
	anyBatch := false
	for _, n := range st.BatchSizeHist {
		anyBatch = anyBatch || n > 0
	}
	if anyBatch {
		fmt.Fprintf(&b, "\nbatch-size hist:")
		for i, n := range st.BatchSizeHist {
			fmt.Fprintf(&b, " %s=%d", tscout.BatchHistLabels[i], n)
		}
		fmt.Fprintf(&b, "\n")
	}

	// Resilience telemetry (orphaned in-flight OUs, corrupt-metric
	// discards, points lost at the sink) only renders once any
	// counter is nonzero: a healthy fault-free deployment keeps the
	// compact layout, and a nonzero section is itself the signal that
	// samples were lost to faults rather than archived.
	orphans := st.TotalOrphans()
	resil := orphans.Total() + st.TotalCorruptDiscards() +
		st.SinkRetryDrops + st.TotalRuntimeFaults()
	if resil > 0 {
		fmt.Fprintf(&b, "\nresilience:\n")
		fmt.Fprintf(&b, "orphans: begin-no-end=%d end-no-begin=%d torn-migration=%d stale-reaped=%d\n",
			orphans.BeginWithoutEnd, orphans.EndWithoutBegin,
			orphans.TornMigration, orphans.StaleReaped)
		fmt.Fprintf(&b, "corrupt-discards=%d sink-drops=%d\n",
			st.TotalCorruptDiscards(), st.SinkRetryDrops)
		if rf := st.TotalRuntimeFaults(); rf > 0 {
			// A verified program faulting at runtime is a verifier or JIT
			// bug, not operational noise — call it out unmistakably.
			fmt.Fprintf(&b, "RUNTIME-FAULTS=%d (verified programs faulted in marker context — verifier/JIT bug)\n", rf)
		}
	}

	// Autopilot block only renders when a controller is attached: rates,
	// error horizons, and drift state per subsystem, plus the consumption
	// counters that show the retraining loop is actually fed.
	if st.Autopilot.Enabled {
		ap := st.Autopilot
		fmt.Fprintf(&b, "\nautopilot: epochs=%d refits=%d segments=%d points-consumed=%d\n",
			ap.Epochs, ap.Refits, ap.Segments, ap.PointsConsumed)
		fmt.Fprintf(&b, "%-18s %6s %12s %12s %8s %6s %10s\n",
			"subsystem", "rate%", "recent(us)", "baseline(us)", "drift", "events", "state")
		for _, sub := range tscout.AllSubsystems {
			ratio := 1.0
			if ap.BaselineErrUS[sub] > 0 {
				ratio = ap.RecentErrUS[sub] / ap.BaselineErrUS[sub]
			}
			state := "holding"
			if ap.Converged[sub] {
				state = "converged"
			} else if ratio >= 2 {
				state = "drifting"
			}
			rate := "-"
			if ap.Rates[sub] >= 0 {
				rate = fmt.Sprintf("%d", ap.Rates[sub])
			}
			fmt.Fprintf(&b, "%-18s %6s %12.2f %12.2f %8.2f %6d %10s\n",
				sub.String(), rate, ap.RecentErrUS[sub], ap.BaselineErrUS[sub],
				ratio, ap.DriftEvents[sub], state)
		}
	}

	// JIT dispatch renders for every deployed Collector, all of whose
	// programs run compiled. Each program cell shows its native run count.
	if st.TotalCompiledPrograms() > 0 {
		fmt.Fprintf(&b, "\njit (native runs per program):\n")
		fmt.Fprintf(&b, "%-18s %12s %12s %12s %8s\n", "subsystem", "begin", "end", "features", "faults")
		for _, sub := range tscout.AllSubsystems {
			js := st.JIT[sub]
			if js.CompiledPrograms() == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-18s %12d %12d %12d %8d\n",
				sub.String(), js.Begin.CompiledRuns, js.End.CompiledRuns, js.Features.CompiledRuns,
				js.RuntimeFaults())
		}
		fmt.Fprintf(&b, "compiled-programs=%d\n", st.TotalCompiledPrograms())
		// What one hit of each program dispatches at most: its
		// instructions, and the micro-ops they fuse into.
		fmt.Fprintf(&b, "jit ops (instructions->micro-ops per program):\n")
		opsCell := func(p bpf.ProgramJITStats) string {
			return fmt.Sprintf("%d->%d", p.Insns, p.Ops)
		}
		for _, sub := range tscout.AllSubsystems {
			js := st.JIT[sub]
			if js.CompiledPrograms() == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-18s %12s %12s %12s\n",
				sub.String(), opsCell(js.Begin), opsCell(js.End), opsCell(js.Features))
		}
	}
	return b.String()
}
