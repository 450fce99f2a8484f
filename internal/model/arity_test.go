package model

import (
	"bytes"
	"math"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/tscout"
)

// mixedArityPoints builds TrainingPoints where the same OU appears at
// three feature arities — the shape an archive takes once a controller
// changes a subsystem's resource mask mid-run and the OU re-registers
// with a different feature set.
func mixedArityPoints() []tscout.TrainingPoint {
	var pts []tscout.TrainingPoint
	for i := 0; i < 240; i++ {
		tp := tscout.TrainingPoint{
			OU:        tscout.OUID(7),
			OUName:    "seq_scan",
			Subsystem: tscout.SubsystemExecutionEngine,
			PID:       100,
			Metrics:   tscout.Metrics{ElapsedNS: int64(i)*500 + 1000},
		}
		switch (i / 80) % 3 { // three mask regimes, 80 rows each
		case 0:
			tp.Features = []float64{float64(i % 50)}
			tp.FeatureNames = []string{"rows"}
		case 1:
			tp.Features = []float64{float64(i % 50), 8}
			tp.FeatureNames = []string{"rows", "width"}
		case 2:
			tp.Features = []float64{float64(i % 50), 8, 0.5}
			tp.FeatureNames = []string{"rows", "width", "sel"}
		}
		pts = append(pts, tp)
	}
	return pts
}

// TestFromArchiveMixedArity proves FromArchive ≡ FromTrainingPoints on an
// archive holding the same OU at several feature arities: element-for-
// element identical points, with distinct templates per arity (the
// archive stores the regimes in separate blocks; the conversion must not
// re-mix them).
func TestFromArchiveMixedArity(t *testing.T) {
	pts := mixedArityPoints()
	var buf bytes.Buffer
	w := archive.NewWriterSize(&buf, 37) // force blocks to straddle segments
	if err := w.WriteBatch(pts); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	hw := []float64{3.5}
	want := FromTrainingPoints(pts, hw)
	got, err := FromArchive(r, hw)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePoints(t, got, want)

	// Templates must separate the arity regimes: identical raw feature
	// values at different widths may not share an invocation class.
	seen := map[int]map[uint64]bool{}
	for _, p := range want {
		arity := len(p.Features) - len(hw)
		if seen[arity] == nil {
			seen[arity] = map[uint64]bool{}
		}
		seen[arity][p.Template] = true
	}
	for a1, t1 := range seen {
		for a2, t2 := range seen {
			if a1 >= a2 {
				continue
			}
			for tmpl := range t1 {
				if t2[tmpl] {
					t.Fatalf("template %#x appears at arity %d and %d", tmpl, a1, a2)
				}
			}
		}
	}
}

// TestTrainMixedArity is the model-partition regression: training on
// mixed-arity data must fit one model per (OU, arity) — under the old
// OU-only grouping the forest read short rows out of range.
func TestTrainMixedArity(t *testing.T) {
	points := FromTrainingPoints(mixedArityPoints(), []float64{3.5})
	set, err := Train(points, Forest{Trees: 4, MaxDepth: 6, Seed: 7})
	if err != nil {
		t.Fatalf("mixed-arity data: %v", err)
	}
	// Every regime predicts through its own model, and predictions are sane
	// (finite, non-negative) for every arity.
	for _, p := range points {
		v := set.Predict(p)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("Predict(arity %d) = %v", len(p.Features), v)
		}
	}
	// An arity never seen in training falls back instead of feeding a
	// differently-shaped vector to some other regime's model.
	unseen := Point{OU: 7, Sub: tscout.SubsystemExecutionEngine,
		Features: []float64{1, 2, 3, 4, 5, 6}}
	if got := set.Predict(unseen); got != set.fallback {
		t.Fatalf("unseen arity predicted %v, want fallback %v", got, set.fallback)
	}
}
