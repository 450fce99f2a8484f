package model

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"tscout/internal/tscout"
)

// This file is the incremental-learning surface the autopilot controller
// drives: models that absorb archive mini-batches as they are sealed —
// over a sliding window with partial ensemble refresh (WindowedForest) —
// plus the prequential per-subsystem error tracker that turns prediction error into the controller's drift signal.
// Nothing here ever retrains from scratch: refresh cost is bounded by the
// window and the per-refresh tree budget, not by archive size.

// OnlineModel is an incrementally refreshable Model: Observe folds new
// rows in, Refit re-derives the predictor from accumulated state.
type OnlineModel interface {
	Model
	// Observe folds one training row into the accumulated state. It does
	// not change the predictor — call Refit for that.
	Observe(x []float64, y float64)
	// Refit re-derives the predictor from the accumulated state. It never
	// discards a working predictor on failure (e.g. a still-singular
	// system early in a run keeps the previous fit or the running mean).
	Refit() error
	// N reports rows observed since creation.
	N() int64
}

// WindowedForest is a random forest over a sliding window: Observe keeps
// the last Window rows, Refresh rebuilds only RefreshTrees of the Trees
// ensemble slots (round-robin) on the current window — the windowed fit
// of the tentpole. Old regimes age out of the window and then out of the
// ensemble one refresh at a time, so a drifted workload is relearned in
// Trees/RefreshTrees refreshes without ever retraining the whole forest.
type WindowedForest struct {
	// Window is the number of rows retained (default 2048).
	Window int
	// Trees is the ensemble size (default 8).
	Trees int
	// RefreshTrees is how many slots one Refresh rebuilds (default
	// max(1, Trees/4)).
	RefreshTrees int
	// MaxDepth and MinSamples bound the trees (defaults 10 and 4).
	MaxDepth   int
	MinSamples int
	// Seed drives bootstrapping; the tree built for slot s at refresh g is
	// a pure function of (Seed, s, g), keeping refreshes deterministic
	// regardless of wall time or map order.
	Seed int64

	xs      [][]float64
	ys      []float64
	next    int // ring cursor
	full    bool
	n       int64
	sumY    float64
	trees   []*treeNode
	slot    int   // next ensemble slot to rebuild
	refresh int64 // refresh generation

	// Refit's working set, kept between calls.
	idx []int
	sc  splitScratch
}

func (f *WindowedForest) window() int {
	if f.Window <= 0 {
		return 2048
	}
	return f.Window
}

func (f *WindowedForest) ensemble() int {
	if f.Trees <= 0 {
		return 8
	}
	return f.Trees
}

func (f *WindowedForest) perRefresh() int {
	if f.RefreshTrees > 0 {
		return f.RefreshTrees
	}
	k := f.ensemble() / 4
	if k < 1 {
		k = 1
	}
	return k
}

func (f *WindowedForest) maxDepth() int {
	if f.MaxDepth <= 0 {
		return 10
	}
	return f.MaxDepth
}

func (f *WindowedForest) minSamples() int {
	if f.MinSamples <= 0 {
		return 4
	}
	return f.MinSamples
}

// Observe implements OnlineModel.
func (f *WindowedForest) Observe(x []float64, y float64) {
	w := f.window()
	if f.xs == nil {
		f.xs = make([][]float64, w)
		f.ys = make([]float64, w)
	}
	f.xs[f.next] = append(f.xs[f.next][:0], x...)
	f.ys[f.next] = y
	f.next++
	if f.next == w {
		f.next = 0
		f.full = true
	}
	f.n++
	f.sumY += y
}

// Refit implements OnlineModel: rebuild RefreshTrees ensemble slots on
// the current window. Cost is bounded by Window and RefreshTrees — never
// by the archive.
func (f *WindowedForest) Refit() error {
	rows := f.next
	if f.full {
		rows = f.window()
	}
	if rows == 0 {
		return ErrNoData
	}
	// The sample is drawn over the window in ring order (oldest first), so
	// it is stable and deterministic, then pointed at where Observe left the
	// rows. It and the split scratch are kept: the window never grows, so a
	// refit on a full one allocates only its trees and their rngs.
	X, y := f.xs[:rows], f.ys[:rows]
	oldest := 0
	if f.full {
		oldest = f.next
	}
	mtry := mtryFor(len(X[0]))
	f.idx = slices.Grow(f.idx[:0], rows)
	idx := f.idx[:rows]
	f.sc.encode(X)
	f.refresh++
	for k := 0; k < f.perRefresh(); k++ {
		// Pure function of (Seed, slot, refresh): deterministic and
		// independent of how other slots were refreshed.
		rng := rand.New(rand.NewSource(f.Seed + int64(f.slot)*7919 + f.refresh*104729))
		bootstrap(idx, rng)
		for j, r := range idx {
			idx[j] = (oldest + r) % rows
		}
		tree := buildTree(X, y, idx, f.maxDepth(), f.minSamples(), mtry, rng, &f.sc, 0)
		if len(f.trees) < f.ensemble() {
			f.trees = append(f.trees, tree)
		} else {
			f.trees[f.slot] = tree
		}
		f.slot = (f.slot + 1) % f.ensemble()
	}
	return nil
}

// Predict implements Model: the ensemble mean, or the running mean before
// the first refresh.
func (f *WindowedForest) Predict(x []float64) float64 {
	if len(f.trees) == 0 {
		if f.n == 0 {
			return 0
		}
		return f.sumY / float64(f.n)
	}
	var sum float64
	for _, t := range f.trees {
		sum += t.predict(x)
	}
	return sum / float64(len(f.trees))
}

// N implements OnlineModel.
func (f *WindowedForest) N() int64 { return f.n }

// OnlineSet is the incremental counterpart of OUModelSet: one OnlineModel
// per (OU, feature arity), a global-mean fallback, and a prequential
// observation path that measures error on data the models have not seen.
type OnlineSet struct {
	newModel    func() OnlineModel
	models      map[ouKey]OnlineModel
	keys        []ouKey // sorted; insertion-ordered refits stay deterministic
	fallbackSum float64
	fallbackN   int64
}

// NewOnlineSet builds an empty set; newModel constructs the per-(OU,
// arity) incremental model (e.g. a WindowedForest).
func NewOnlineSet(newModel func() OnlineModel) *OnlineSet {
	return &OnlineSet{newModel: newModel, models: make(map[ouKey]OnlineModel)}
}

// ObservePrequential is test-then-train over one mini-batch: each point
// is first predicted with the current models — the absolute error lands
// in surface, per subsystem — and then folded into its model's state.
// Because every point is scored before anything trains on it, the
// recorded error is held-out by construction, with no split bookkeeping.
// Points whose (OU, arity) model has no rows yet are not scored (there is
// nothing fitted to blame). surface may be nil to skip scoring.
func (s *OnlineSet) ObservePrequential(points []Point, surface *ErrorSurface) {
	for _, p := range points {
		key := keyOf(p)
		m, ok := s.models[key]
		if !ok {
			m = s.newModel()
			s.models[key] = m
			i := sort.Search(len(s.keys), func(i int) bool {
				k := s.keys[i]
				return k.ou > key.ou || (k.ou == key.ou && k.arity >= key.arity)
			})
			s.keys = append(s.keys, ouKey{})
			copy(s.keys[i+1:], s.keys[i:])
			s.keys[i] = key
		}
		if surface != nil && m.N() > 0 {
			err := p.TargetUS - m.Predict(p.Features)
			if err < 0 {
				err = -err
			}
			surface.Record(p.Sub, err)
		}
		m.Observe(p.Features, p.TargetUS)
		s.fallbackSum += p.TargetUS
		s.fallbackN++
	}
}

// Refit refreshes every model in sorted (OU, arity) order — all of them,
// whatever any one of them returns: a model that cannot refit keeps its
// previous predictor or its running mean. ErrNoData is not a failure. The
// first error that is, a still-singular early system included (it heals as
// rows accumulate), is returned once every model has had its turn.
func (s *OnlineSet) Refit() error {
	var first error
	for _, key := range s.keys {
		if err := s.models[key].Refit(); err != nil && !errors.Is(err, ErrNoData) && first == nil {
			first = fmt.Errorf("model: OU %d (arity %d): %w", key.ou, key.arity, err)
		}
	}
	return first
}

// Predict mirrors OUModelSet.Predict for the online set.
func (s *OnlineSet) Predict(p Point) float64 {
	m, ok := s.models[keyOf(p)]
	if !ok || m.N() == 0 {
		if s.fallbackN == 0 {
			return 0
		}
		return s.fallbackSum / float64(s.fallbackN)
	}
	v := m.Predict(p.Features)
	if v < 0 {
		v = 0
	}
	return v
}

// AvgAbsErrorByTemplate evaluates the online set with the paper's
// headline metric.
func (s *OnlineSet) AvgAbsErrorByTemplate(test []Point) float64 {
	return avgAbsErrorByTemplate(s.Predict, test)
}

// ErrorSurface is the per-subsystem prequential error tracker behind the
// autopilot's drift signal: two exponentially-weighted means per
// subsystem — a fast "recent" horizon and a slow "baseline" horizon —
// over the absolute error of predictions on not-yet-trained-on points.
// A recent mean far above baseline means the models have stopped
// describing the workload (drift); recent ≈ baseline means converged.
type ErrorSurface struct {
	recent  [tscout.NumSubsystems]float64
	base    [tscout.NumSubsystems]float64
	samples [tscout.NumSubsystems]int64
}

// EWMA horizons: recent reacts within ~10 samples, baseline within ~200.
const (
	recentAlpha   = 0.10
	baselineAlpha = 0.005
)

// Record folds one absolute error (µs) into a subsystem's horizons.
func (s *ErrorSurface) Record(sub tscout.SubsystemID, absErrUS float64) {
	if s.samples[sub] == 0 {
		s.recent[sub] = absErrUS
		s.base[sub] = absErrUS
	} else {
		s.recent[sub] += recentAlpha * (absErrUS - s.recent[sub])
		s.base[sub] += baselineAlpha * (absErrUS - s.base[sub])
	}
	s.samples[sub]++
}

// Recent returns the fast-horizon mean absolute error (µs).
func (s *ErrorSurface) Recent(sub tscout.SubsystemID) float64 { return s.recent[sub] }

// Baseline returns the slow-horizon mean absolute error (µs).
func (s *ErrorSurface) Baseline(sub tscout.SubsystemID) float64 { return s.base[sub] }

// Samples returns how many predictions have been scored.
func (s *ErrorSurface) Samples(sub tscout.SubsystemID) int64 { return s.samples[sub] }

// Reanchor resets a subsystem's slow baseline to its current fast
// horizon, accepting the recent error level as the new normal. The
// controller calls this when it declares drift (or a hardware-context
// change) so DriftRatio measures recovery from the new regime instead of
// re-reporting the same jump every epoch.
func (s *ErrorSurface) Reanchor(sub tscout.SubsystemID) {
	s.base[sub] = s.recent[sub]
}

// DriftRatio is recent/baseline error — the controller's drift signal. 1
// means stable; well above 1 means the recent stream stopped matching the
// learned behavior. Subsystems with no scored samples report 1.
func (s *ErrorSurface) DriftRatio(sub tscout.SubsystemID) float64 {
	if s.samples[sub] == 0 || s.base[sub] <= 0 {
		return 1
	}
	return s.recent[sub] / s.base[sub]
}
