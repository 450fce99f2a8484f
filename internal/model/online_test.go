package model

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tscout/internal/tscout"
)

// batchRidge is these tests' linear OnlineModel: it keeps every row and
// refits a batch Ridge over all of them, the running mean standing in
// until a refit succeeds.
type batchRidge struct {
	lambda float64
	X      [][]float64
	y      []float64
	sum    float64
	fit    Model
}

func (r *batchRidge) Observe(x []float64, y float64) {
	r.X, r.y, r.sum = append(r.X, append([]float64(nil), x...)), append(r.y, y), r.sum+y
}

func (r *batchRidge) Refit() error {
	m, err := Ridge{Lambda: r.lambda}.Train(r.X, r.y)
	if err == nil {
		r.fit = m
	}
	return err
}

func (r *batchRidge) Predict(x []float64) float64 {
	if r.fit != nil {
		return r.fit.Predict(x)
	}
	if len(r.y) == 0 {
		return 0
	}
	return r.sum / float64(len(r.y))
}

func (r *batchRidge) N() int64 { return int64(len(r.y)) }

// TestWindowedForestAdaptsToDrift: after a regime change fills the
// window, successive partial refreshes move predictions to the new
// regime — without a full retrain and with the old regime aged out.
func TestWindowedForestAdaptsToDrift(t *testing.T) {
	f := &WindowedForest{Window: 256, Trees: 8, RefreshTrees: 2, MaxDepth: 6, Seed: 11}
	rng := rand.New(rand.NewSource(3))

	feed := func(slope float64, n int) {
		for i := 0; i < n; i++ {
			x := rng.Float64() * 20
			f.Observe([]float64{x}, slope*x)
		}
	}
	regimeErr := func(slope float64) float64 {
		var sum float64
		for i := 1; i <= 20; i++ {
			x := float64(i)
			sum += math.Abs(f.Predict([]float64{x}) - slope*x)
		}
		return sum / 20
	}

	// Regime A: y = 3x. Refresh enough times to populate all 8 slots.
	feed(3, 256)
	for i := 0; i < 4; i++ {
		if err := f.Refit(); err != nil {
			t.Fatal(err)
		}
	}
	if e := regimeErr(3); e > 3 {
		t.Fatalf("regime A error %v after convergence", e)
	}

	// Regime B: y = 10x floods the window.
	feed(10, 256)
	before := regimeErr(10)
	for i := 0; i < 4; i++ { // 4 refreshes × 2 trees = full ensemble turnover
		if err := f.Refit(); err != nil {
			t.Fatal(err)
		}
	}
	after := regimeErr(10)
	if after >= before {
		t.Fatalf("refresh did not adapt: regime-B error %v -> %v", before, after)
	}
	if after > 10 {
		t.Fatalf("regime-B error still %v after full turnover", after)
	}
}

// TestWindowedForestDeterministic: two forests fed the identical
// Observe/Refit schedule predict bit-identically — refresh randomness is
// a pure function of (Seed, slot, refresh generation).
func TestWindowedForestDeterministic(t *testing.T) {
	build := func() *WindowedForest {
		f := &WindowedForest{Window: 128, Trees: 6, RefreshTrees: 2, MaxDepth: 5, Seed: 99}
		rng := rand.New(rand.NewSource(17))
		for r := 0; r < 5; r++ {
			for i := 0; i < 64; i++ {
				x := rng.Float64() * 50
				f.Observe([]float64{x, x * x}, 2*x+0.1*x*x)
			}
			if err := f.Refit(); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	a, b := build(), build()
	for i := 0; i < 40; i++ {
		x := []float64{float64(i), float64(i * i)}
		if math.Float64bits(a.Predict(x)) != math.Float64bits(b.Predict(x)) {
			t.Fatalf("prediction %d diverged: %v vs %v", i, a.Predict(x), b.Predict(x))
		}
	}
}

// TestErrorSurfaceDrift: a stable error stream keeps DriftRatio near 1; a
// sudden error jump pushes the fast horizon well above the slow baseline.
func TestErrorSurfaceDrift(t *testing.T) {
	var s ErrorSurface
	sub := tscout.SubsystemExecutionEngine
	for i := 0; i < 400; i++ {
		s.Record(sub, 5)
	}
	if r := s.DriftRatio(sub); math.Abs(r-1) > 0.01 {
		t.Fatalf("stable stream drift ratio %v", r)
	}
	for i := 0; i < 30; i++ {
		s.Record(sub, 50)
	}
	if r := s.DriftRatio(sub); r < 2 {
		t.Fatalf("10x error jump only moved drift ratio to %v", r)
	}
	// Untouched subsystems stay neutral.
	if r := s.DriftRatio(tscout.SubsystemDiskWriter); r != 1 {
		t.Fatalf("unscored subsystem drift ratio %v", r)
	}
	if s.Samples(sub) != 430 {
		t.Fatalf("Samples = %d", s.Samples(sub))
	}
}

// TestOnlineSetPrequential: on a stationary stream the prequential error
// falls as models converge, mixed arities get separate models, and the
// metric agrees with the shared template-grouped evaluator.
func TestOnlineSetPrequential(t *testing.T) {
	set := NewOnlineSet(func() OnlineModel { return &batchRidge{lambda: 1e-3} })
	var surface ErrorSurface

	mk := func(i int) Point {
		x := float64(i % 40)
		p := Point{
			OU:       7,
			Sub:      tscout.SubsystemExecutionEngine,
			Features: []float64{x},
			TargetUS: 100 + 4*x,
		}
		if i%3 == 0 { // second arity regime interleaved
			p.Features = []float64{x, 2}
			p.TargetUS = 50 + 2*x
		}
		p.Template = templateKeyOf(p.OU, p.Features)
		return p
	}

	var batch []Point
	for i := 0; i < 50; i++ {
		batch = append(batch, mk(i))
	}
	set.ObservePrequential(batch, &surface)
	if err := set.Refit(); err != nil {
		t.Fatal(err)
	}
	early := surface.Recent(tscout.SubsystemExecutionEngine)

	for round := 0; round < 10; round++ {
		batch = batch[:0]
		for i := 0; i < 50; i++ {
			batch = append(batch, mk(round*50+i))
		}
		set.ObservePrequential(batch, &surface)
		if err := set.Refit(); err != nil {
			t.Fatal(err)
		}
	}
	late := surface.Recent(tscout.SubsystemExecutionEngine)
	if late >= early {
		t.Fatalf("prequential error did not fall: %v -> %v", early, late)
	}
	if late > 1 {
		t.Fatalf("stationary stream converged to error %v", late)
	}
	if len(set.models) != 2 {
		t.Fatalf("expected 2 (OU, arity) models, got %d", len(set.models))
	}

	// Evaluation path agrees with the batch evaluator's grouping.
	var test []Point
	for i := 0; i < 30; i++ {
		test = append(test, mk(i))
	}
	if e := set.AvgAbsErrorByTemplate(test); e > 1 {
		t.Fatalf("held-out template error %v", e)
	}
}

// TestOnlineSetRefitReportsFailure: a model that cannot refit neither stops
// the models after it nor goes unreported.
func TestOnlineSetRefitReportsFailure(t *testing.T) {
	forest := &WindowedForest{Seed: 1}
	models := []OnlineModel{&batchRidge{lambda: 1e-30}, forest}
	set := NewOnlineSet(func() OnlineModel {
		m := models[0]
		models = models[1:]
		return m
	})
	var pts []Point
	for i := 0; i < 40; i++ {
		x := float64(i % 4)
		pts = append(pts,
			// A constant column beside the bias: singular at this lambda.
			Point{OU: 1, Features: []float64{2}, TargetUS: 5},
			Point{OU: 2, Features: []float64{x}, TargetUS: 10 * x})
	}
	set.ObservePrequential(pts, nil)
	if err := set.Refit(); err == nil || errors.Is(err, ErrNoData) {
		t.Fatalf("Refit over a singular ridge returned %v", err)
	}
	if got := forest.Predict([]float64{3}); math.Abs(got-30) > 1 {
		t.Fatalf("the forest after the failing ridge predicts %v for 30: not refitted", got)
	}
}

// TestWindowedForestRefitAllocations: on a full window a refit allocates
// what it returns and nothing for the window, the sample or the split
// scratch. With stumps that is twelve whatever the window and the arity: an
// rng, its source, three nodes and the root's permutation, twice.
func TestWindowedForestRefitAllocations(t *testing.T) {
	for _, c := range []struct{ window, arity int }{{256, 2}, {2048, 7}} {
		f := &WindowedForest{Window: c.window, Trees: 4, RefreshTrees: 2, MaxDepth: 1, Seed: 3}
		rng := rand.New(rand.NewSource(int64(c.window)))
		x := make([]float64, c.arity)
		for i := 0; i < c.window+c.window/2; i++ {
			for j := range x {
				x[j] = float64(rng.Intn(20))
			}
			f.Observe(x, 3*x[0]+x[c.arity-1]+rng.NormFloat64())
		}
		if err := f.Refit(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() { _ = f.Refit() })
		for _, tree := range f.trees {
			if tree.leaf {
				t.Fatalf("window %d, arity %d: a tree did not split", c.window, c.arity)
			}
		}
		if allocs > 12 {
			t.Errorf("window %d, arity %d: %v allocations a refit, want 12", c.window, c.arity, allocs)
		}
	}
}
