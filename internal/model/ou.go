package model

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tscout/internal/sim"
	"tscout/internal/tscout"
)

// Point is one training example for an OU model: features plus the target
// metric (elapsed microseconds, matching the paper's error unit).
type Point struct {
	OU       tscout.OUID
	Sub      tscout.SubsystemID
	Features []float64
	// TargetUS is the elapsed time in microseconds.
	TargetUS float64
	// Template identifies the invocation class this point belongs to;
	// the paper evaluates "average absolute error per query template".
	Template uint64
}

// templateKeyOf buckets a point into an invocation class: the OU plus its
// feature vector quantized to order of magnitude. Points from the same
// query template land in the same class.
//
// Arity is part of the key by construction: the digest absorbs one 8-byte
// word per feature, so the same OU observed at two feature widths (a
// resource-mask change mid-run) hashes different-length inputs and lands
// in different templates — [x] and [x, 0] do not collide. Model
// partitioning handles the rest (see ouKey).
func templateKeyOf(ou tscout.OUID, features []float64) uint64 {
	h := fnvWord(fnvOffset64, uint64(ou))
	for _, f := range features {
		h = fnvWord(h, uint64(quantize(f)))
	}
	return h
}

// FNV-64a parameters (hash/fnv's, which TestTemplateKeyOfIsFNV64a pins).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds v's eight little-endian bytes into the FNV-64a state h.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	return h
}

// quantize maps a feature to a coarse magnitude bucket. +Inf, which no
// division brings below 4, has a bucket of its own past every finite
// value's (MaxFloat64's is 513).
func quantize(v float64) int {
	if v <= 0 {
		return 0
	}
	if math.IsInf(v, 1) {
		return 514
	}
	b := 1
	for v >= 4 {
		v /= 4
		b++
	}
	return b
}

// ouKey partitions training data by OU *and* feature arity. A deployment
// that changes a subsystem's resource mask mid-run re-registers its OUs
// with a different feature width, so one archive can hold the same OU at
// several arities. Grouping by OU alone silently mixed those regimes into
// one design matrix: the forest indexed short rows out of range or ignored
// the extra features — feature i means different things under different
// masks.
type ouKey struct {
	ou    tscout.OUID
	arity int
}

// OUModelSet holds one trained model per (OU, feature arity) — the
// decomposed modeling of MB2 that TScout generates data for, partitioned
// so mask changes mid-run never mix feature regimes.
type OUModelSet struct {
	models map[ouKey]Model
	// fallback predicts for (OU, arity) pairs with no training data: the
	// global mean.
	fallback float64
}

// Train fits one model per (OU, feature arity) present in the data.
func Train(points []Point, trainer Trainer) (*OUModelSet, error) {
	if len(points) == 0 {
		return nil, ErrNoData
	}
	// One pass files each point under its key's group; a second fills
	// each group's design matrix, sized by count, in point order.
	groupOf := make(map[ouKey]int)
	var keys []ouKey
	var counts []int
	group := make([]int, len(points))
	var sum float64
	for i := range points {
		k := keyOf(points[i])
		g, ok := groupOf[k]
		if !ok {
			g = len(keys)
			groupOf[k] = g
			keys = append(keys, k)
			counts = append(counts, 0)
		}
		group[i] = g
		counts[g]++
		sum += points[i].TargetUS
	}
	Xs := make([][][]float64, len(keys))
	ys := make([][]float64, len(keys))
	for g, c := range counts {
		Xs[g] = make([][]float64, 0, c)
		ys[g] = make([]float64, 0, c)
	}
	for i := range points {
		g := group[i]
		Xs[g] = append(Xs[g], points[i].Features)
		ys[g] = append(ys[g], points[i].TargetUS)
	}
	set := &OUModelSet{
		models:   make(map[ouKey]Model, len(keys)),
		fallback: sum / float64(len(points)),
	}
	for g, key := range keys {
		m, err := trainer.Train(Xs[g], ys[g])
		if err != nil {
			return nil, fmt.Errorf("model: OU %d (arity %d): %w", key.ou, key.arity, err)
		}
		set.models[key] = m
	}
	return set, nil
}

// keyOf is a point's model-partition key.
func keyOf(p Point) ouKey {
	return ouKey{ou: p.OU, arity: len(p.Features)}
}

// Predict returns the modeled elapsed microseconds for one point. A point
// whose (OU, arity) pair was never trained — an OU observed only under a
// different resource mask — gets the fallback, never a model fed a
// feature vector shaped for a different mask.
func (s *OUModelSet) Predict(p Point) float64 {
	m, ok := s.models[keyOf(p)]
	if !ok {
		return s.fallback
	}
	v := m.Predict(p.Features)
	if v < 0 {
		v = 0
	}
	return v
}

// AvgAbsErrorByTemplate computes the paper's headline metric: for each
// query template, the mean |actual - predicted| in microseconds, averaged
// over templates (§6: "we measure the absolute error for each query
// template and then compute the average").
func (s *OUModelSet) AvgAbsErrorByTemplate(test []Point) float64 {
	return avgAbsErrorByTemplate(s.Predict, test)
}

// avgAbsErrorByTemplate is the metric over any predictor — shared by the
// batch OUModelSet and the incremental OnlineSet so frontier experiments
// compare them on identical footing.
func avgAbsErrorByTemplate(predict func(Point) float64, test []Point) float64 {
	type agg struct {
		sum float64
		n   int
	}
	groups := make(map[uint64]*agg)
	for _, p := range test {
		g, ok := groups[p.Template]
		if !ok {
			g = &agg{}
			groups[p.Template] = g
		}
		g.sum += math.Abs(p.TargetUS - predict(p))
		g.n++
	}
	if len(groups) == 0 {
		return 0
	}
	// Sum in sorted template order: float addition is not associative, so
	// map-order iteration would make the reported error drift run to run.
	templates := make([]uint64, 0, len(groups))
	for t := range groups {
		templates = append(templates, t)
	}
	sort.Slice(templates, func(i, j int) bool { return templates[i] < templates[j] })
	var total float64
	for _, t := range templates {
		g := groups[t]
		total += g.sum / float64(g.n)
	}
	return total / float64(len(groups))
}

// FilterSub selects the points of one subsystem.
func FilterSub(points []Point, sub tscout.SubsystemID) []Point {
	var out []Point
	for _, p := range points {
		if p.Sub == sub {
			out = append(out, p)
		}
	}
	return out
}

// SplitRows randomly holds out a fraction of points (row-wise), so test
// templates also appear in training. The paper cross-validates its
// convergence experiments (§6.5) with five row-wise folds; a holdFrac of
// 0.2 is one of them.
func SplitRows(points []Point, holdFrac float64, seed int64) (train, test []Point) {
	rng := rand.New(sim.NewPCG(seed, 0))
	idx := rng.Perm(len(points))
	nHold := int(float64(len(points)) * holdFrac)
	if nHold < 1 && len(points) > 1 {
		nHold = 1
	}
	held := map[int]bool{}
	for _, i := range idx[:nHold] {
		held[i] = true
	}
	for i, p := range points {
		if held[i] {
			test = append(test, p)
		} else {
			train = append(train, p)
		}
	}
	return train, test
}

// Sample returns up to n randomly chosen points (for the convergence
// experiments that train on increasing dataset sizes, §6.5).
func Sample(points []Point, n int, seed int64) []Point {
	if n >= len(points) {
		return points
	}
	rng := rand.New(sim.NewPCG(seed, 0))
	idx := rng.Perm(len(points))[:n]
	out := make([]Point, n)
	for i, pi := range idx {
		out[i] = points[pi]
	}
	return out
}
