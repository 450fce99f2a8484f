package experiment

import (
	"testing"

	"tscout/internal/tscout"
)

func rowsBySub(rows []SubsystemRow, scenario string) map[tscout.SubsystemID]SubsystemRow {
	out := map[tscout.SubsystemID]SubsystemRow{}
	for _, r := range rows {
		if scenario == "" || r.Scenario == scenario {
			out[r.Subsystem] = r
		}
	}
	return out
}

func TestFig2Shape(t *testing.T) {
	t.Parallel()
	rows, err := Fig2(Quick)
	if err != nil {
		t.Fatal(err)
	}
	checkBlock(t, "fig2", rows, renderFig2)
	m := rowsBySub(rows, "")
	if len(m) != 4 {
		t.Fatalf("rows: %+v", rows)
	}
	// Paper Fig. 2: online data improves every subsystem; the WAL
	// subsystems (log serializer 93%, disk writer 77%) improve far more
	// than the execution engine (9.5%).
	for sub, r := range m {
		if r.ReductionPct <= 0 {
			t.Fatalf("%v: online data must improve accuracy: %+v", sub, r)
		}
	}
	logSer := m[tscout.SubsystemLogSerializer].ReductionPct
	diskWr := m[tscout.SubsystemDiskWriter].ReductionPct
	ee := m[tscout.SubsystemExecutionEngine].ReductionPct
	if !(logSer > ee && diskWr > ee) {
		t.Fatalf("WAL subsystems must improve most: logser=%.1f diskwr=%.1f ee=%.1f",
			logSer, diskWr, ee)
	}
	if logSer < 40 {
		t.Fatalf("log serializer reduction too small: %.1f%% (paper: 93%%)", logSer)
	}
}

func TestFig7Shape(t *testing.T) {
	t.Parallel()
	rows, err := Fig7(Quick)
	if err != nil {
		t.Fatal(err)
	}
	checkBlock(t, "fig7", rows, renderFig7)
	larger := rowsBySub(rows, "Larger HW")
	smaller := rowsBySub(rows, "Smaller HW")
	if len(larger) != 4 || len(smaller) != 4 {
		t.Fatalf("rows: %+v", rows)
	}
	// Paper Fig. 7d: the disk writer improves dramatically in both
	// migrations (98% and 86%) because its behavior is hardware-bound
	// and it has no hardware context features.
	for _, m := range []map[tscout.SubsystemID]SubsystemRow{larger, smaller} {
		dw := m[tscout.SubsystemDiskWriter]
		if dw.ReductionPct < 40 {
			t.Fatalf("disk writer must improve heavily after migration: %+v", dw)
		}
		ls := m[tscout.SubsystemLogSerializer]
		if ls.ReductionPct <= 0 {
			t.Fatalf("log serializer must improve: %+v", ls)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	t.Parallel()
	rows, err := Fig9(Quick)
	if err != nil {
		t.Fatal(err)
	}
	checkBlock(t, "fig9", rows, renderFig9)
	// Group by subsystem.
	bySub := map[tscout.SubsystemID][]ConvergenceRow{}
	for _, r := range rows {
		bySub[r.Subsystem] = append(bySub[r.Subsystem], r)
	}
	// Paper Fig. 9c/9d: the WAL subsystems converge below the offline
	// baseline once enough online data is available. The log serializer
	// shows the paper's dramatic gap (group-commit record batching the
	// runners never see); the disk writer's gap is smaller here because
	// the simulated device's fixed latency dominates flush time
	// (EXPERIMENTS.md records the magnitude deviation).
	for sub, minReduction := range map[tscout.SubsystemID]float64{
		tscout.SubsystemLogSerializer: 0.5,
		tscout.SubsystemDiskWriter:    0.9,
	} {
		curve := bySub[sub]
		if len(curve) == 0 {
			t.Fatalf("no curve for %v", sub)
		}
		last := curve[len(curve)-1]
		if last.OnlineUS >= last.OfflineUS*minReduction {
			t.Fatalf("%v: convergence too weak: online=%.2f offline=%.2f (need < %.0f%%)",
				sub, last.OnlineUS, last.OfflineUS, minReduction*100)
		}
	}
	// Error must not grow as data grows (allowing small non-monotonic
	// wiggles, which the paper also observes in Fig. 10a).
	for sub, curve := range bySub {
		first, last := curve[0], curve[len(curve)-1]
		if last.OnlineUS > first.OnlineUS*1.5 {
			t.Fatalf("%v: error grew with data: first=%.1f last=%.1f", sub, first.OnlineUS, last.OnlineUS)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("HTAP collection is slow")
	}
	rows, err := Fig10(Quick)
	if err != nil {
		t.Fatal(err)
	}
	checkBlock(t, "fig10", rows, renderFig10)
	bySub := map[tscout.SubsystemID][]ConvergenceRow{}
	for _, r := range rows {
		bySub[r.Subsystem] = append(bySub[r.Subsystem], r)
	}
	// Same trends as Fig. 9 for the WAL subsystems under HTAP.
	for _, sub := range []tscout.SubsystemID{tscout.SubsystemLogSerializer, tscout.SubsystemDiskWriter} {
		curve := bySub[sub]
		if len(curve) == 0 {
			t.Fatalf("no curve for %v", sub)
		}
		last := curve[len(curve)-1]
		if last.OnlineUS >= last.OfflineUS {
			t.Fatalf("%v: online must beat offline under HTAP: %+v", sub, last)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	t.Parallel()
	rows, err := Fig11(Quick)
	if err != nil {
		t.Fatal(err)
	}
	checkBlock(t, "fig11", rows, renderFig11)
	// Collapse to the best reduction per terminal count.
	best := map[int]float64{}
	offline := map[int]float64{}
	for _, r := range rows {
		if r.ReductionPct > best[r.Terminals] {
			best[r.Terminals] = r.ReductionPct
		}
		offline[r.Terminals] = r.OfflineUS
	}
	// Paper Fig. 11: offline models degrade with more clients
	// (contention they never saw). In the paper the online reduction
	// therefore grows from ~30-47% at 2 terminals to 98-99% at 20; in
	// this reproduction even two clients activate the contention model
	// the runners miss, so the reduction is already high at 2 terminals
	// and stays high across the sweep (EXPERIMENTS.md's Fig. 11 block
	// reads 90-94% everywhere). Assert the mechanism, not the paper's ramp:
	// offline error must grow with every step in contention, and online
	// data must remove at least 85% of it at every terminal count —
	// including 20, where the offline model is at its worst. Both hold
	// only on complete pools: drawn from pools that had lost their tail,
	// the offline column was not monotone and 10 terminals reached 83.1%.
	terminals := []int{2, 5, 10, 20}
	for i, n := range terminals {
		if i > 0 && !(offline[n] > offline[terminals[i-1]]) {
			t.Fatalf("offline error must grow with contention: %v", offline)
		}
		if best[n] < 85 {
			t.Fatalf("reduction at %d terminals too small: %.1f%% (want at least 85%% of the offline error removed): %v",
				n, best[n], best)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("seven scenarios")
	}
	rows, err := Fig12(Quick)
	if err != nil {
		t.Fatal(err)
	}
	checkBlock(t, "fig12", rows, renderFig12)
	scenarios := map[string]bool{}
	for _, r := range rows {
		scenarios[r.Scenario] = true
	}
	if len(scenarios) != 7 {
		t.Fatalf("expected 7 scenarios: %v", scenarios)
	}
	// Count how often online data helps: the paper's summary is that it
	// helps in most scenario/subsystem combinations, with regressions in
	// the hardware-migration cells that lack context features (the
	// paper's own Fig. 12d disk writer worsens 2x on Larger HW).
	helped, hurt := 0, 0
	for _, r := range rows {
		if r.OnlineUS <= r.OfflineUS {
			helped++
		} else {
			hurt++
		}
	}
	if helped < hurt {
		t.Fatalf("online data must help in most cells: helped=%d hurt=%d", helped, hurt)
	}
	// The log serializer improves in the majority of scenarios
	// (Fig. 12c), and strongly in the database-size scenarios where the
	// group-commit batching gap dominates.
	lsImproved, lsTotal := 0, 0
	for _, r := range rows {
		if r.Subsystem != tscout.SubsystemLogSerializer {
			continue
		}
		lsTotal++
		if r.ReductionPct > 0 {
			lsImproved++
		}
		if (r.Scenario == "Larger DB" || r.Scenario == "Smaller DB") && r.ReductionPct < 40 {
			t.Fatalf("log serializer must improve strongly in %q: %+v", r.Scenario, r)
		}
	}
	if lsImproved*2 < lsTotal {
		t.Fatalf("log serializer must improve in a majority of scenarios: %d/%d", lsImproved, lsTotal)
	}
}
