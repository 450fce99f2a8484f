package main

import (
	"strings"
	"testing"

	"tscout/internal/bpf"
	"tscout/internal/tscout"
)

// fullyPopulatedStats builds a ProcessorStats snapshot that exercises every
// optional section of the renderer: per-CPU rings, batch histogram,
// resilience counters, and the JIT tables.
func fullyPopulatedStats() tscout.ProcessorStats {
	var st tscout.ProcessorStats
	st.Polls = 12
	st.Parallelism = 4
	st.GlobalBudget = 512
	st.EffectiveBudget = 384
	st.Processed = 9000
	st.SinkRetryDrops = 1
	for i := range st.Kernel {
		st.Kernel[i] = tscout.SubsystemStats{
			Submitted: int64(1000 * (i + 1)), Drained: int64(900 * (i + 1)),
			Dropped: int64(100 * (i + 1)), Points: int64(890 * (i + 1)),
			CorruptDiscards: int64(i),
		}
		st.Rings[i] = []bpf.RingStats{
			{Submitted: int64(100 + i), Drained: int64(90 + i), Dropped: int64(10 + i)},
			{}, // quiet ring: elided, counted in the footer
			{Submitted: int64(7 * (i + 1)), Drained: int64(7 * (i + 1))},
		}
		st.JIT[i] = tscout.CollectorJITStats{
			Begin:    bpf.ProgramJITStats{Insns: 150, Ops: 25, CompiledRuns: int64(500 * (i + 1))},
			End:      bpf.ProgramJITStats{Insns: 190, Ops: 30, CompiledRuns: int64(400 * (i + 1))},
			Features: bpf.ProgramJITStats{Insns: 260, Ops: 31, CompiledRuns: int64(300 * (i + 1))},
		}
	}
	st.BatchSizeHist = [tscout.BatchHistBuckets]int64{3, 8, 21, 5, 1, 0}
	st.Autopilot = tscout.AutopilotStats{
		Enabled: true, Epochs: 42, Refits: 7, PointsConsumed: 5000, Segments: 11,
		Rates:         [tscout.NumSubsystems]int{1, 100, 50, -1},
		RecentErrUS:   [tscout.NumSubsystems]float64{0.5, 9.0, 2.0, 0},
		BaselineErrUS: [tscout.NumSubsystems]float64{0.6, 3.0, 2.1, 0},
		DriftEvents:   [tscout.NumSubsystems]int64{0, 2, 0, 0},
		Converged:     [tscout.NumSubsystems]bool{true, false, false, false},
	}
	return st
}

// TestFormatProcessorStatsDeterministic pins the renderer's determinism:
// every table is backed by arrays or ordered slices (never raw map
// iteration), so rendering the same snapshot twice yields byte-identical
// output — the property the tsvet map-order rule enforces at compile time.
func TestFormatProcessorStatsDeterministic(t *testing.T) {
	st := fullyPopulatedStats()
	first := formatProcessorStats(st)
	for i := 0; i < 20; i++ {
		if got := formatProcessorStats(st); got != first {
			t.Fatalf("render %d differs from first render:\n--- first ---\n%s\n--- got ---\n%s", i, first, got)
		}
	}

	// The snapshot must actually have driven every optional section, or
	// the byte-compare proves less than it claims.
	for _, section := range []string{
		"per-cpu rings", "quiet-rings=", "batch-size hist:", "resilience:",
		"jit (native runs",
		"compiled-programs=", "jit ops (instructions",
		"autopilot: epochs=42", "converged", "drifting",
	} {
		if !strings.Contains(first, section) {
			t.Errorf("rendered stats missing section %q:\n%s", section, first)
		}
	}
}
