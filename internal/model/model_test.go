package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tscout/internal/tscout"
)

func TestForestFitsNonlinear(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var X [][]float64
	var y []float64
	f := func(a, b float64) float64 {
		if a > 50 {
			return 100 + b
		}
		return 10 + 2*b
	}
	for i := 0; i < 800; i++ {
		a, b := rng.Float64()*100, rng.Float64()*10
		X = append(X, []float64{a, b})
		y = append(y, f(a, b))
	}
	m, err := Forest{Trees: 15, Seed: 3}.Train(X, y)
	if err != nil {
		t.Fatal(err)
	}
	var sumErr float64
	const trials = 200
	for i := 0; i < trials; i++ {
		a, b := rng.Float64()*100, rng.Float64()*10
		sumErr += math.Abs(m.Predict([]float64{a, b}) - f(a, b))
	}
	if mae := sumErr / trials; mae > 8 {
		t.Fatalf("forest MAE too high: %v", mae)
	}
}

func TestForestConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	m, err := Forest{Trees: 3, Seed: 1}.Train(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{2.5}); got != 7 {
		t.Fatalf("constant: %v", got)
	}
}

// TestForestAllFeatures holds the case AllFeatures exists for: a network
// read's cost set by its message count, with bytes and a constant clock
// speed beside it. Dense one-message reads up to 93 bytes, a few sparse
// ones beyond, and multi-message reads at 144 and 288 bytes: an unseen
// one-message read of 150 to 240 bytes costs what the other one-message
// reads cost, and a split that cannot see the message count groups it
// with the 144-byte four-message reads instead.
func TestForestAllFeatures(t *testing.T) {
	cost := func(msgs float64) float64 { return 5 + 4.2*(msgs-1) }
	var X [][]float64
	var y []float64
	add := func(bytes, msgs float64, n int) {
		for range n {
			X = append(X, []float64{bytes, msgs, 2100})
			y = append(y, cost(msgs))
		}
	}
	for b := 30.0; b <= 93; b++ {
		add(b, 1, 20)
	}
	for _, b := range []float64{104, 296, 1064} {
		add(b, 1, 3)
	}
	add(72, 2, 3)
	add(144, 4, 3)
	add(288, 8, 3)
	m, err := Forest{Trees: 16, MaxDepth: 10, Seed: 7, AllFeatures: true}.Train(X, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []float64{150, 200, 240} {
		if got := m.Predict([]float64{b, 1, 2100}); math.Abs(got-cost(1)) > 0.5 {
			t.Errorf("one-message read of %v bytes: predicted %.2f µs, costs %.2f", b, got, cost(1))
		}
	}
}

func syntheticPoints(n int, ou tscout.OUID, sub tscout.SubsystemID, f func(x float64) float64, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	var out []Point
	for i := 0; i < n; i++ {
		x := float64(rng.Intn(1000))
		out = append(out, Point{
			OU: ou, Sub: sub,
			Features: []float64{x},
			TargetUS: f(x),
			Template: uint64(quantize(x)),
		})
	}
	return out
}

func TestTrainPredictPerOU(t *testing.T) {
	ptsA := syntheticPoints(300, 1, tscout.SubsystemExecutionEngine,
		func(x float64) float64 { return 2 * x }, 1)
	ptsB := syntheticPoints(300, 2, tscout.SubsystemNetworking,
		func(x float64) float64 { return 100 + x }, 2)
	set, err := Train(append(ptsA, ptsB...), Forest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pa := set.Predict(Point{OU: 1, Features: []float64{100}})
	if math.Abs(pa-200) > 10 {
		t.Fatalf("OU 1: %v", pa)
	}
	pb := set.Predict(Point{OU: 2, Features: []float64{100}})
	if math.Abs(pb-200) > 10 {
		t.Fatalf("OU 2: %v", pb)
	}
	// Unknown OU falls back to the global mean, clamped non-negative.
	if set.Predict(Point{OU: 99, Features: []float64{1}}) <= 0 {
		t.Fatalf("fallback must be positive")
	}
}

func TestAvgAbsErrorByTemplate(t *testing.T) {
	pts := syntheticPoints(400, 1, tscout.SubsystemExecutionEngine,
		func(x float64) float64 { return 3 * x }, 3)
	set, err := Train(pts, Forest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A forest fits the 0–3000 µs line piecewise: within 0.2 % in sample.
	errUS := set.AvgAbsErrorByTemplate(pts)
	if errUS > 6 {
		t.Fatalf("in-sample linear error: %v", errUS)
	}
	// A deliberately wrong model set has large error.
	bad := &OUModelSet{models: map[ouKey]Model{}, fallback: 0}
	if bad.AvgAbsErrorByTemplate(pts) < 100 {
		t.Fatalf("zero predictor must err")
	}
	if (&OUModelSet{}).AvgAbsErrorByTemplate(nil) != 0 {
		t.Fatalf("empty test set")
	}
}

func TestSplitByTemplateDisjoint(t *testing.T) {
	pts := syntheticPoints(500, 1, tscout.SubsystemExecutionEngine,
		func(x float64) float64 { return x }, 4)
	train, test := SplitByTemplate(pts, 0.2, 7)
	if len(train) == 0 || len(test) == 0 {
		t.Fatalf("split: %d/%d", len(train), len(test))
	}
	trainT := map[uint64]bool{}
	for _, p := range train {
		trainT[p.Template] = true
	}
	for _, p := range test {
		if trainT[p.Template] {
			t.Fatalf("template %d leaked into both sides", p.Template)
		}
	}
	if len(train)+len(test) != len(pts) {
		t.Fatalf("partition: %d+%d != %d", len(train), len(test), len(pts))
	}
}

// CrossValidate runs k-fold cross-validation (the paper uses 5-fold) and
// returns the mean per-template absolute error across folds. extraTrain
// points (e.g. offline runner data) join every fold's training set.
func CrossValidate(points []Point, extraTrain []Point, trainer Trainer, k int, seed int64) (float64, error) {
	if len(points) < k {
		return 0, fmt.Errorf("model: %d points for %d folds", len(points), k)
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(points))
	var total float64
	folds := 0
	for f := 0; f < k; f++ {
		var train, test []Point
		train = append(train, extraTrain...)
		for i, pi := range idx {
			if i%k == f {
				test = append(test, points[pi])
			} else {
				train = append(train, points[pi])
			}
		}
		if len(train) == 0 || len(test) == 0 {
			continue
		}
		set, err := Train(train, trainer)
		if err != nil {
			return 0, err
		}
		total += set.AvgAbsErrorByTemplate(test)
		folds++
	}
	if folds == 0 {
		return 0, ErrNoData
	}
	return total / float64(folds), nil
}

func TestCrossValidate(t *testing.T) {
	pts := syntheticPoints(300, 1, tscout.SubsystemExecutionEngine,
		func(x float64) float64 { return 5*x + 7 }, 5)
	cv, err := CrossValidate(pts, nil, Forest{Seed: 1}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Within 0.5 % of the 0–5000 µs range on held-out folds.
	if cv > 25 {
		t.Fatalf("CV error on clean linear data: %v", cv)
	}
	// Extra training data from a different regime raises the error.
	shifted := syntheticPoints(300, 1, tscout.SubsystemExecutionEngine,
		func(x float64) float64 { return 5*x + 5000 }, 6)
	cv2, err := CrossValidate(pts, shifted, Forest{Seed: 1}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cv2 <= cv {
		t.Fatalf("conflicting extra data must hurt: %v vs %v", cv2, cv)
	}
	if _, err := CrossValidate(pts[:3], nil, Forest{Seed: 1}, 5, 1); err == nil {
		t.Fatalf("too few points must fail")
	}
}

func TestSample(t *testing.T) {
	pts := syntheticPoints(100, 1, tscout.SubsystemExecutionEngine,
		func(x float64) float64 { return x }, 8)
	s := Sample(pts, 10, 1)
	if len(s) != 10 {
		t.Fatalf("sample size: %d", len(s))
	}
	if got := Sample(pts, 1000, 1); len(got) != 100 {
		t.Fatalf("oversample returns all: %d", len(got))
	}
}

func TestFilterSub(t *testing.T) {
	pts := append(
		syntheticPoints(10, 1, tscout.SubsystemExecutionEngine, func(x float64) float64 { return x }, 1),
		syntheticPoints(5, 2, tscout.SubsystemDiskWriter, func(x float64) float64 { return x }, 2)...)
	if got := FilterSub(pts, tscout.SubsystemDiskWriter); len(got) != 5 {
		t.Fatalf("filter: %d", len(got))
	}
}

func TestFromTrainingPoints(t *testing.T) {
	tps := []tscout.TrainingPoint{{
		OU: 3, Subsystem: tscout.SubsystemLogSerializer,
		Features: []float64{10, 20},
		Metrics:  tscout.Metrics{ElapsedNS: 5000},
	}}
	pts := FromTrainingPoints(tps, []float64{2100})
	if len(pts) != 1 || pts[0].TargetUS != 5 {
		t.Fatalf("conversion: %+v", pts)
	}
	if len(pts[0].Features) != 3 || pts[0].Features[2] != 2100 {
		t.Fatalf("hw context: %+v", pts[0].Features)
	}
	if pts[0].Template == 0 {
		t.Fatalf("template key must be set")
	}
}

func TestQuantizeMonotonic(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		return quantize(x) <= quantize(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if quantize(-5) != 0 || quantize(0) != 0 {
		t.Fatalf("non-positive quantization")
	}
}

// TestAvgAbsErrorByTemplateDeterministic pins the map-order fix in
// AvgAbsErrorByTemplate: per-template averages are summed in sorted
// template order, so the reported error is bit-identical across calls.
// (Float addition is not associative; summing in map-iteration order made
// the result drift between otherwise identical runs.)
func TestAvgAbsErrorByTemplateDeterministic(t *testing.T) {
	pts := syntheticPoints(600, 1, tscout.SubsystemExecutionEngine,
		func(x float64) float64 { return 1.0 / (1.1 + x) }, 61)
	set, err := Train(pts, Forest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := set.AvgAbsErrorByTemplate(pts)
	for i := 0; i < 50; i++ {
		if got := set.AvgAbsErrorByTemplate(pts); got != first {
			t.Fatalf("call %d: error %v != first call %v (map-order leak)", i, got, first)
		}
	}
}
