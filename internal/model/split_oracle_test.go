package model

import (
	"math/rand"
	"sort"
)

// This file is the split search as it was before the bucketed rewrite,
// kept as the differential oracle for buildTree (the role
// FromTrainingPoints plays for FromArchive): for every candidate threshold
// of every tried feature it partitions the node's rows and runs meanSSE
// over both sides. Do not optimise it.

func buildTreeOracle(X [][]float64, y []float64, idx []int, depth, minSamples, mtry int, rng *rand.Rand) *treeNode {
	mean, sse := meanSSE(y, idx)
	if depth <= 0 || len(idx) < minSamples || sse < 1e-12 {
		return &treeNode{leaf: true, value: mean}
	}
	nFeat := len(X[0])
	feats := rng.Perm(nFeat)[:mtry]

	bestFeat, bestThresh := -1, 0.0
	bestScore := sse
	var bestLeft, bestRight []int
	vals := make([]float64, 0, len(idx))
	for _, fi := range feats {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, X[i][fi])
		}
		sort.Float64s(vals)
		for _, th := range splitCandidatesOracle(vals) {
			var left, right []int
			for _, i := range idx {
				if X[i][fi] <= th {
					left = append(left, i)
				} else {
					right = append(right, i)
				}
			}
			if len(left) == 0 || len(right) == 0 {
				continue
			}
			_, lsse := meanSSE(y, left)
			_, rsse := meanSSE(y, right)
			if s := lsse + rsse; s < bestScore {
				bestScore, bestFeat, bestThresh = s, fi, th
				bestLeft, bestRight = left, right
			}
		}
	}
	if bestFeat < 0 {
		return &treeNode{leaf: true, value: mean}
	}
	return &treeNode{
		feature:   bestFeat,
		threshold: bestThresh,
		left:      buildTreeOracle(X, y, bestLeft, depth-1, minSamples, mtry, rng),
		right:     buildTreeOracle(X, y, bestRight, depth-1, minSamples, mtry, rng),
	}
}

func splitCandidatesOracle(sorted []float64) []float64 {
	if len(sorted) < 2 || sorted[0] == sorted[len(sorted)-1] {
		return nil
	}
	distinct := make([]float64, 0, 32)
	prev := sorted[0]
	distinct = append(distinct, prev)
	for _, v := range sorted[1:] {
		if v != prev {
			distinct = append(distinct, v)
			prev = v
			if len(distinct) > 32 {
				break
			}
		}
	}
	var out []float64
	if len(distinct) <= 32 {
		for i := 1; i < len(distinct); i++ {
			out = append(out, (distinct[i-1]+distinct[i])/2)
		}
		return out
	}
	seen := map[float64]bool{}
	for q := 1; q < 16; q++ {
		th := sorted[len(sorted)*q/16]
		if th == sorted[0] || th == sorted[len(sorted)-1] || seen[th] {
			continue
		}
		seen[th] = true
		out = append(out, th)
	}
	// Guarantee the extremes remain separable even under heavy skew.
	lo := (sorted[0] + distinct[1]) / 2
	hiIdx := len(sorted) - 1
	for hiIdx > 0 && sorted[hiIdx] == sorted[len(sorted)-1] {
		hiIdx--
	}
	hi := (sorted[hiIdx] + sorted[len(sorted)-1]) / 2
	if !seen[lo] {
		out = append(out, lo)
	}
	if !seen[hi] && hi != lo {
		out = append(out, hi)
	}
	return out
}
