package experiment

import (
	"testing"
)

// TestFrontierShape asserts the frontier claim EXPERIMENTS.md states, at
// the scale where the controller is still converging (1 200 txns: two of
// four subsystems throttled, two still at 100%): no fixed policy beats the
// autopilot on both axes, its error sits between fixed 100%'s and fixed
// 10%'s, within 1.65x of fixed 100%'s, and it pays a fraction of full-rate
// overhead.
//
// The error bar was 1.5x until PR 17. It passed only because a bounded
// flush queue dropped the tail of every unbudgeted final drain and fixed
// 100% — the deepest rings at end of run — lost the most: 1.37µs with the
// truncated pool, 1.20µs with the complete one, against an autopilot that
// never lost a point (1.83µs either way). Measured autopilot/fixed-100%
// error on complete pools: 1.53x at 1 200 txns (this test), 1.56x at 1 500
// (tsbench's quick scale, where the truncated pools already gave 1.52x),
// 1.27x at 2 000, 1.40x at 3 000, 0.69x at 6 000. The bar is the sweep's
// worst case plus 6%; the controller was not tuned to win it back.
func TestFrontierShape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	sc := Quick
	sc.OnlineTxns = 1200
	rows, err := Frontier(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows: %+v", rows)
	}
	byPolicy := map[string]FrontierRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	f1, f10, f100 := byPolicy["fixed 1%"], byPolicy["fixed 10%"], byPolicy["fixed 100%"]
	auto, ok := byPolicy["autopilot"]
	if !ok {
		t.Fatalf("no autopilot row: %+v", rows)
	}

	// The fixed frontier itself must slope the right way: more sampling,
	// more data, less error, more overhead.
	if !(f100.TrainingRows > f1.TrainingRows) {
		t.Fatalf("fixed rows not monotone: %+v", rows)
	}
	if !(f100.ErrorUS < f1.ErrorUS) {
		t.Fatalf("fixed 100%% should out-predict fixed 1%%: %+v", rows)
	}

	// Pareto dominance: no fixed policy beats the autopilot on both axes.
	for _, r := range []FrontierRow{f1, f10, f100} {
		if r.ErrorUS < auto.ErrorUS && r.OverheadPct < auto.OverheadPct {
			t.Fatalf("%s dominates autopilot: %+v vs %+v", r.Policy, r, auto)
		}
	}
	// Mid-convergence the autopilot's error lies between the two fixed
	// rates it is moving between, and within 1.65x of full sampling's —
	// at a fraction of full-rate overhead.
	if !(f100.ErrorUS <= auto.ErrorUS && auto.ErrorUS <= f10.ErrorUS) {
		t.Fatalf("autopilot error %.2fµs not between fixed 100%% (%.2fµs) and fixed 10%% (%.2fµs)",
			auto.ErrorUS, f100.ErrorUS, f10.ErrorUS)
	}
	if auto.ErrorUS > f100.ErrorUS*1.65 {
		t.Fatalf("autopilot error %.2fµs too far above full sampling %.2fµs",
			auto.ErrorUS, f100.ErrorUS)
	}
	if auto.OverheadPct > f100.OverheadPct*0.75 {
		t.Fatalf("autopilot overhead %.2f%% not clearly below full sampling %.2f%%",
			auto.OverheadPct, f100.OverheadPct)
	}

	// The controller actually ran and ended throttled on the subsystems
	// this workload exercises.
	if auto.Epochs == 0 {
		t.Fatalf("controller never ticked: %+v", auto)
	}
	throttled := false
	for _, r := range auto.FinalRates {
		if r >= 0 && r < 100 {
			throttled = true
		}
	}
	if !throttled {
		t.Fatalf("autopilot never throttled: %+v", auto)
	}
}
