package model

import (
	"bytes"
	"math"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/tscout"
)

// FromTrainingPoints converts TScout output into model points, targeting
// elapsed time, with hwContext appended to every point's features: the
// row-at-a-time oracle FromArchive must agree with.
func FromTrainingPoints(pts []tscout.TrainingPoint, hwContext []float64) []Point {
	out := make([]Point, 0, len(pts))
	for _, tp := range pts {
		out = append(out, Point{
			OU:       tp.OU,
			Sub:      tp.Subsystem,
			Features: append(append([]float64(nil), tp.Features...), hwContext...),
			TargetUS: float64(tp.Metrics.ElapsedNS) / 1000.0,
			Template: templateKeyOf(tp.OU, tp.Features),
		})
	}
	return out
}

// TestFromArchiveMatchesFromTrainingPoints is the column-path equivalence
// check: reading model points straight from archive columns must produce
// exactly what materializing TrainingPoints and converting them does.
func TestFromArchiveMatchesFromTrainingPoints(t *testing.T) {
	var pts []tscout.TrainingPoint
	for i := 0; i < 333; i++ {
		tp := tscout.TrainingPoint{
			OU:        tscout.OUID(1 + i%4),
			OUName:    []string{"scan", "filter", "join", "sort"}[i%4],
			Subsystem: tscout.SubsystemID(i % 2),
			PID:       1000 + i%3,
			Metrics:   tscout.Metrics{ElapsedNS: int64(i)*977 + 13, Cycles: uint64(i) * 3},
		}
		if i%4 != 3 {
			tp.Features = []float64{float64(i % 50), 0.25 * float64(i)}
			tp.FeatureNames = []string{"rows", "width"}
		}
		pts = append(pts, tp)
	}

	var buf bytes.Buffer
	w := archive.NewWriterSize(&buf, 41)
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

	hw := []float64{2.1}
	want := FromTrainingPoints(pts, hw)
	got, err := FromArchive(r, hw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("FromArchive returned %d points, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.OU != b.OU || a.Sub != b.Sub || a.Template != b.Template ||
			a.TargetUS != b.TargetUS || len(a.Features) != len(b.Features) {
			t.Fatalf("point %d differs:\n want %+v\n got  %+v", i, a, b)
		}
		for f := range a.Features {
			if math.Float64bits(a.Features[f]) != math.Float64bits(b.Features[f]) {
				t.Fatalf("point %d feature %d: %v != %v", i, f, a.Features[f], b.Features[f])
			}
		}
	}
}
