package experiment

import (
	"testing"
)

// TestFrontierShape asserts the error-vs-overhead frontier's headline:
// the autopilot Pareto-dominates every fixed sampling rate — no fixed
// policy beats it on both axes, it tracks fixed-100%'s accuracy while
// paying a fraction of the overhead, and it ends the run throttled.
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
	f1, f100 := byPolicy["fixed 1%"], byPolicy["fixed 100%"]
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
	for _, r := range []FrontierRow{f1, byPolicy["fixed 10%"], f100} {
		if r.ErrorUS < auto.ErrorUS && r.OverheadPct < auto.OverheadPct {
			t.Fatalf("%s dominates autopilot: %+v vs %+v", r.Policy, r, auto)
		}
	}
	// And the strong form of the claim: near-full-rate accuracy at a
	// fraction of full-rate overhead.
	if auto.ErrorUS > f100.ErrorUS*1.5 {
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
