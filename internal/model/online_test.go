package model

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tscout/internal/tscout"
)

// errRefit is what failingModel's every Refit returns.
var errRefit = errors.New("model: refit failed")

// failingModel is an OnlineModel that cannot refit.
type failingModel struct{ n int64 }

func (m *failingModel) Observe([]float64, float64) { m.n++ }
func (m *failingModel) Refit() error               { return errRefit }
func (m *failingModel) Predict([]float64) float64  { return 0 }
func (m *failingModel) N() int64                   { return m.n }

// TestWindowedForestAdaptsToDrift: after a regime change fills the
// window, successive partial refreshes move predictions to the new
// regime — without a full retrain and with the old regime aged out.
func TestWindowedForestAdaptsToDrift(t *testing.T) {
	f := &WindowedForest{Trees: 8, RefreshTrees: 2, MaxDepth: 6, Seed: 11}
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
	feed(3, windowRows)
	for i := 0; i < 4; i++ {
		if err := f.Refit(); err != nil {
			t.Fatal(err)
		}
	}
	if e := regimeErr(3); e > 3 {
		t.Fatalf("regime A error %v after convergence", e)
	}

	// Regime B: y = 10x floods the window.
	feed(10, windowRows)
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
		f := &WindowedForest{Trees: 6, RefreshTrees: 2, MaxDepth: 5, Seed: 99}
		rng := rand.New(rand.NewSource(17))
		for r := 0; r < 5; r++ {
			for i := 0; i < windowRows/4; i++ {
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
	set := NewOnlineSet(func() OnlineModel { return &WindowedForest{Seed: 1} })
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
	models := []OnlineModel{&failingModel{}, forest}
	set := NewOnlineSet(func() OnlineModel {
		m := models[0]
		models = models[1:]
		return m
	})
	var pts []Point
	for i := 0; i < 40; i++ {
		x := float64(i % 4)
		pts = append(pts,
			Point{OU: 1, Features: []float64{2}, TargetUS: 5},
			Point{OU: 2, Features: []float64{x}, TargetUS: 10 * x})
	}
	set.ObservePrequential(pts, nil)
	if err := set.Refit(); !errors.Is(err, errRefit) {
		t.Fatalf("Refit over a failing model returned %v", err)
	}
	if got := forest.Predict([]float64{3}); math.Abs(got-30) > 1 {
		t.Fatalf("the forest after the failing model predicts %v for 30: not refitted", got)
	}
}

// TestWindowedForestRefitAllocations: on a full window a refit allocates
// nothing: not for the window, the sample or the split scratch, not for an
// rng (one is reseeded per slot) and not for the trees, each of which is
// rebuilt into the slice its slot already holds.
func TestWindowedForestRefitAllocations(t *testing.T) {
	for _, arity := range []int{2, 7} {
		f := &WindowedForest{Trees: 4, RefreshTrees: 2, MaxDepth: 1, Seed: 3}
		rng := rand.New(rand.NewSource(windowRows))
		x := make([]float64, arity)
		for i := 0; i < windowRows+windowRows/2; i++ {
			for j := range x {
				x[j] = float64(rng.Intn(20))
			}
			f.Observe(x, 3*x[0]+x[arity-1]+rng.NormFloat64())
		}
		if err := f.Refit(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() { _ = f.Refit() })
		for _, tree := range f.trees {
			if tree[0].right == 0 {
				t.Fatalf("arity %d: a tree did not split", arity)
			}
		}
		if allocs != 0 {
			t.Errorf("arity %d: %v allocations a refit, want 0", arity, allocs)
		}
	}
}

// TestWindowedForestObserveAllocations: filling a window allocates the
// ring, its targets and a chunk per chunkRows rows, not a copy per row; the
// rows hold what was observed, and each is capped, so no row can grow into
// the next.
func TestWindowedForestObserveAllocations(t *testing.T) {
	const arity = 7
	x := make([]float64, arity)
	var f WindowedForest
	allocs := testing.AllocsPerRun(3, func() {
		f = WindowedForest{}
		for i := 0; i < windowRows; i++ {
			for j := range x {
				x[j] = float64(i*arity + j)
			}
			f.Observe(x, float64(i))
		}
	})
	if limit := (windowRows+chunkRows-1)/chunkRows + 2; allocs > float64(limit) {
		t.Errorf("%v allocations to fill a window of %d rows, want at most %d", allocs, windowRows, limit)
	}
	for i, row := range f.xs {
		if len(row) != arity || cap(row) != arity {
			t.Fatalf("row %d: len %d cap %d, want %d", i, len(row), cap(row), arity)
		}
		for j, v := range row {
			if v != float64(i*arity+j) {
				t.Fatalf("row %d holds %v", i, row)
			}
		}
	}
}
