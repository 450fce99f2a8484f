package main

import (
	"strings"
	"testing"

	"tscout/internal/bpf"
	"tscout/internal/tscout"
)

func TestFormatProcessorStatsLayout(t *testing.T) {
	var st tscout.ProcessorStats
	st.Polls = 7
	st.Parallelism = 2
	st.GlobalBudget = 256
	st.EffectiveBudget = 200
	st.FeedbackActions = 3
	st.Processed = 1234
	st.Kernel[tscout.SubsystemExecutionEngine] = tscout.SubsystemStats{
		Submitted: 1500, Drained: 1400, Dropped: 100,
		DecodeErrors: 2, PaddedFeatures: 5, TruncatedFeatures: 6, Points: 1398,
	}
	st.User = tscout.SubsystemStats{Submitted: 50, Drained: 50, Points: 50}

	out := formatProcessorStats(st)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")

	// Header, one row per kernel subsystem, the user queue row, a blank
	// separator, and three footer lines.
	wantLines := 1 + len(tscout.AllSubsystems) + 1 + 1 + 3
	if len(lines) != wantLines {
		t.Fatalf("%d output lines, want %d:\n%s", len(lines), wantLines, out)
	}
	if !strings.HasPrefix(lines[0], "shard") || !strings.Contains(lines[0], "submitted") {
		t.Fatalf("header line: %q", lines[0])
	}

	// Every shard row starts with its name; the exec-engine row carries
	// the counters we set, in column order.
	execRow := ""
	for i, sub := range tscout.AllSubsystems {
		row := lines[1+i]
		if !strings.HasPrefix(row, sub.String()) {
			t.Fatalf("row %d = %q, want prefix %q", i, row, sub.String())
		}
		if sub == tscout.SubsystemExecutionEngine {
			execRow = row
		}
	}
	if fields := strings.Fields(execRow); len(fields) != 8 ||
		fields[1] != "1500" || fields[2] != "1400" || fields[3] != "100" ||
		fields[4] != "2" || fields[5] != "5" || fields[6] != "6" || fields[7] != "1398" {
		t.Fatalf("exec-engine row fields: %v", strings.Fields(execRow))
	}
	userRow := lines[1+len(tscout.AllSubsystems)]
	if !strings.HasPrefix(userRow, "user-queue") || !strings.Contains(userRow, "50") {
		t.Fatalf("user-queue row: %q", userRow)
	}

	// All shard rows align: equal widths up to the first counter column.
	if idx := strings.Index(lines[0], "submitted"); idx < 0 ||
		len(execRow) != len(userRow) {
		t.Fatalf("columns misaligned:\n%s", out)
	}

	footer := strings.Join(lines[len(lines)-3:], "\n")
	for _, want := range []string{
		"polls=7", "parallelism=2", "global-budget=256", "effective-budget=200",
		"feedback-actions=3 processed=1234",
		"drop-fraction=0.0",
	} {
		if !strings.Contains(footer, want) {
			t.Fatalf("footer missing %q:\n%s", want, footer)
		}
	}
}

func TestFormatProcessorStatsDropFraction(t *testing.T) {
	var st tscout.ProcessorStats
	st.Kernel[tscout.SubsystemExecutionEngine] = tscout.SubsystemStats{Submitted: 100, Dropped: 25}
	out := formatProcessorStats(st)
	if !strings.Contains(out, "drop-fraction=0.250") {
		t.Fatalf("drop fraction not rendered:\n%s", out)
	}
}

func TestFormatProcessorStatsPerCPUSection(t *testing.T) {
	var st tscout.ProcessorStats
	// Single-CPU snapshots keep the compact layout: per-ring telemetry
	// would only duplicate the shard aggregate.
	st.Rings[tscout.SubsystemExecutionEngine] = []bpf.RingStats{{Submitted: 10, Drained: 10}}
	if out := formatProcessorStats(st); strings.Contains(out, "per-cpu rings") {
		t.Fatalf("per-cpu section rendered for a single-CPU deployment:\n%s", out)
	}

	// Multi-CPU: only rings with traffic render, quiet ones are counted.
	st.Rings[tscout.SubsystemExecutionEngine] = []bpf.RingStats{
		{Submitted: 10, Drained: 8, Dropped: 2, HighWater: 6},
		{},
		{Submitted: 3, Drained: 3, HighWater: 1},
		{},
	}
	st.Rings[tscout.SubsystemDiskWriter] = []bpf.RingStats{{}, {}, {}, {}}
	out := formatProcessorStats(st)
	if !strings.Contains(out, "per-cpu rings") {
		t.Fatalf("per-cpu section missing:\n%s", out)
	}
	section := out[strings.Index(out, "per-cpu rings"):]
	rows := 0
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "execution-engine") {
			rows++
		}
		if strings.HasPrefix(line, "disk-writer") {
			t.Fatalf("quiet subsystem rendered a per-cpu row:\n%s", section)
		}
	}
	if rows != 2 {
		t.Fatalf("want 2 active exec-engine ring rows, got %d:\n%s", rows, section)
	}
	if !strings.Contains(section, "quiet-rings=6") {
		t.Fatalf("quiet-ring count missing or wrong:\n%s", section)
	}
	// Each ring row ends with the ring's high water, which sets its host
	// memory.
	var header, row []string
	for _, line := range strings.Split(section, "\n") {
		f := strings.Fields(line)
		if len(f) > 1 && f[0] == "subsystem" && header == nil {
			header = f
		}
		if len(f) > 1 && f[0] == "execution-engine" && f[1] == "0" {
			row = f
		}
	}
	if strings.Join(header, " ") != "subsystem cpu submitted drained dropped high" ||
		strings.Join(row, " ") != "execution-engine 0 10 8 2 6" {
		t.Fatalf("per-cpu ring rows must end with the ring's high water:\n%s", section)
	}

	// Batch histogram renders once any bucket is nonzero, with the
	// bucket labels inline.
	if strings.Contains(out, "batch-size hist") {
		t.Fatalf("histogram rendered with all-zero buckets:\n%s", out)
	}
	st.BatchSizeHist[0] = 4
	st.BatchSizeHist[2] = 9
	out = formatProcessorStats(st)
	if !strings.Contains(out, "batch-size hist:") ||
		!strings.Contains(out, "1=4") || !strings.Contains(out, "5-16=9") {
		t.Fatalf("histogram section missing or mislabeled:\n%s", out)
	}
}

func TestFormatProcessorStatsResilienceSection(t *testing.T) {
	var st tscout.ProcessorStats
	// All resilience counters zero: the section must not render, keeping
	// the compact layout TestFormatProcessorStatsLayout pins down.
	if out := formatProcessorStats(st); strings.Contains(out, "resilience") {
		t.Fatalf("resilience section rendered for a healthy snapshot:\n%s", out)
	}

	st.Kernel[tscout.SubsystemExecutionEngine] = tscout.SubsystemStats{
		CorruptDiscards: 3,
		WrapClamps:      1,
		Orphans: tscout.OrphanCounts{
			BeginWithoutEnd: 4, EndWithoutBegin: 2,
			TornMigration: 5, StaleReaped: 6,
		},
	}
	st.Kernel[tscout.SubsystemLogSerializer] = tscout.SubsystemStats{
		Orphans: tscout.OrphanCounts{TornMigration: 1},
	}
	st.User = tscout.SubsystemStats{WrapClamps: 2}
	st.SinkRetries = 7
	st.SinkRetryDrops = 1
	st.PendingRetry = 9

	out := formatProcessorStats(st)
	if !strings.Contains(out, "resilience:") {
		t.Fatalf("resilience section missing:\n%s", out)
	}
	// Orphans aggregate across subsystems; wrap clamps across kernel
	// shards and the user queue.
	for _, want := range []string{
		"begin-no-end=4", "end-no-begin=2", "torn-migration=6", "stale-reaped=6",
		"corrupt-discards=3", "wrap-clamps=3",
		"sink-retries=7", "sink-retry-drops=1", "pending-retry=9",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("resilience section missing %q:\n%s", want, out)
		}
	}
}

func TestFormatProcessorStatsJITSection(t *testing.T) {
	var st tscout.ProcessorStats
	// Disabled everywhere: the JIT section must not render.
	if out := formatProcessorStats(st); strings.Contains(out, "jit") {
		t.Fatalf("jit section rendered with compilation off:\n%s", out)
	}
	st.JIT[tscout.SubsystemExecutionEngine] = tscout.CollectorJITStats{
		Enabled:  true,
		Begin:    bpf.ProgramJITStats{Compiled: true, Insns: 145, Ops: 23, CompiledRuns: 42},
		End:      bpf.ProgramJITStats{Compiled: true, Insns: 190, Ops: 30, CompiledRuns: 40},
		Features: bpf.ProgramJITStats{Compiled: true, Insns: 260, Ops: 31, CompiledRuns: 39},
	}
	out := formatProcessorStats(st)
	for _, want := range []string{
		"jit (native runs per program", "42", "40", "39", "compiled-programs=3",
		"jit ops (instructions->micro-ops", "145->23", "190->30", "260->31",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("jit section missing %q:\n%s", want, out)
		}
	}
	section := out[strings.Index(out, "jit ("):]
	if strings.Contains(section, "disk-writer") {
		t.Fatalf("jit row rendered for subsystem without compilation:\n%s", section)
	}
}

func TestFormatProcessorStatsRuntimeFaults(t *testing.T) {
	var st tscout.ProcessorStats
	// Runtime faults alone must force the resilience section open and
	// render the unmistakable fault banner — this is the counter the old
	// Attach path silently discarded.
	st.Kernel[tscout.SubsystemNetworking] = tscout.SubsystemStats{RuntimeFaults: 3}
	out := formatProcessorStats(st)
	if !strings.Contains(out, "resilience:") {
		t.Fatalf("runtime faults did not open the resilience section:\n%s", out)
	}
	if !strings.Contains(out, "RUNTIME-FAULTS=3") {
		t.Fatalf("fault banner missing:\n%s", out)
	}
	// And a healthy snapshot must not mention it.
	if out := formatProcessorStats(tscout.ProcessorStats{}); strings.Contains(out, "RUNTIME-FAULTS") {
		t.Fatalf("fault banner rendered for healthy snapshot:\n%s", out)
	}
}
