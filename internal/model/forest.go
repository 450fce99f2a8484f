package model

import (
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Forest is a random forest of CART regression trees: bootstrap-sampled
// training sets and random feature subsets per split.
type Forest struct {
	// Trees is the ensemble size (default 20).
	Trees int
	// MaxDepth bounds tree depth (default 12).
	MaxDepth int
	// MinSamples is the minimum node size to split (default 4).
	MinSamples int
	// Seed drives bootstrapping.
	Seed int64
}

func (f Forest) trees() int {
	if f.Trees <= 0 {
		return 20
	}
	return f.Trees
}

func (f Forest) maxDepth() int {
	if f.MaxDepth <= 0 {
		return 12
	}
	return f.MaxDepth
}

func (f Forest) minSamples() int {
	if f.MinSamples <= 0 {
		return 4
	}
	return f.MinSamples
}

// Train implements Trainer.
func (f Forest) Train(X [][]float64, y []float64) (Model, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, ErrNoData
	}
	rng := rand.New(rand.NewSource(f.Seed + 1))
	mtry := mtryFor(len(X[0]))
	idx := make([]int, len(X))
	sc := newSplitScratch(len(X))
	ens := &forestModel{}
	for t := 0; t < f.trees(); t++ {
		bootstrap(idx, rng)
		tree := buildTree(X, y, idx, f.maxDepth(), f.minSamples(), mtry, rng, sc)
		ens.trees = append(ens.trees, tree)
	}
	return ens, nil
}

// mtryFor is how many of nFeat features one split tries.
func mtryFor(nFeat int) int {
	if nFeat > 2 {
		return (nFeat + 2) / 2
	}
	return nFeat
}

// bootstrap fills idx with len(idx) row numbers drawn with replacement.
func bootstrap(idx []int, rng *rand.Rand) {
	for i := range idx {
		idx[i] = rng.Intn(len(idx))
	}
}

type forestModel struct{ trees []*treeNode }

// Predict implements Model: the ensemble mean.
func (m *forestModel) Predict(x []float64) float64 {
	var sum float64
	for _, t := range m.trees {
		sum += t.predict(x)
	}
	return sum / float64(len(m.trees))
}

type treeNode struct {
	leaf        bool
	value       float64
	feature     int
	threshold   float64
	left, right *treeNode
}

func (n *treeNode) predict(x []float64) float64 {
	for !n.leaf {
		if n.feature < len(x) && x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// buildTree grows one CART regression tree over the bootstrap sample idx,
// which it reorders in place: each split stably partitions its node's rows
// into a left and a right sub-slice, so row order within a side — and with
// it every floating-point sum taken in that order — is the sample's.
func buildTree(X [][]float64, y []float64, idx []int, depth, minSamples, mtry int, rng *rand.Rand, sc *splitScratch) *treeNode {
	mean, sse := meanSSE(y, idx)
	if depth <= 0 || len(idx) < minSamples || sse < 1e-12 {
		return &treeNode{leaf: true, value: mean}
	}
	feats := rng.Perm(len(X[0]))[:mtry]
	feat, thresh, ok := sc.bestSplit(X, y, idx, mean, sse, feats)
	if !ok {
		return &treeNode{leaf: true, value: mean}
	}
	left, right := sc.partition(X, idx, feat, thresh)
	return &treeNode{
		feature:   feat,
		threshold: thresh,
		left:      buildTree(X, y, left, depth-1, minSamples, mtry, rng, sc),
		right:     buildTree(X, y, right, depth-1, minSamples, mtry, rng, sc),
	}
}

// splitScratch holds the buffers of one split search. A node is finished
// with them before it recurses, so one value serves every node of every
// tree of a Forest.Train or WindowedForest.Refit.
type splitScratch struct {
	raw      []float64 // the tried feature's column, in idx order
	sorted   []float64 // the same column sorted, for splitCandidates
	dev      []float64 // y - node mean, in idx order
	right    []int     // the right side during partition
	distinct []float64 // splitCandidates' distinct values
	out      []float64 // splitCandidates' result
	ths      []float64 // one feature's thresholds, sorted
	pre, suf []bucket  // rows at or left of / right of each sorted threshold
	cands    []candidate
}

func newSplitScratch(n int) *splitScratch {
	return &splitScratch{
		raw:    make([]float64, n),
		sorted: make([]float64, n),
		dev:    make([]float64, n),
		right:  make([]int, 0, n),
	}
}

// bucket is the count, sum and sum of squares of dev over a set of rows.
type bucket struct {
	n    int
	s, q float64
}

func (b *bucket) add(o bucket) {
	b.n += o.n
	b.s += o.s
	b.q += o.q
}

// sse is the rows' squared error about their own mean. s*(s/n) <= q, so a
// finite q cannot overflow it.
func (b bucket) sse() float64 { return b.q - b.s*(b.s/float64(b.n)) }

// candidate is one threshold that leaves rows on both sides, with its
// approximate score.
type candidate struct {
	feat   int
	thresh float64
	approx float64
}

// bestSplit returns the (feature, threshold) the exhaustive search —
// partition the node per candidate, meanSSE both sides, keep the first
// strictly lowest lsse+rsse below the node's sse — would return, without
// doing that work per candidate.
//
// One pass per feature drops each row's (1, d, d²), d = y - mean, into the
// bucket of the first sorted threshold at or above its value (NaN values
// land right of every threshold, as X[i][f] <= th sends them), and prefix
// and suffix sums over the <= 33 buckets give every candidate's side
// counts exactly and its score approximately: SSE = Σd² - (Σd)²/n holds
// for any centre, and centring on the node mean keeps Σd² <= sse, so the
// subtraction cancels nothing large. Only candidates within tol of the
// lowest approximate score are then scored with the exhaustive search's
// own arithmetic, in its order and with its strict <.
//
// tol bounds twice the gap between a candidate's two scores, so the
// exhaustive winner c* is always re-scored: with E exact, A approximate
// and |E-A| <= tol/2, A(c*) <= E(c*) + tol/2 <= E(c) + tol/2 <= A(c) + tol
// for every c, and A(c*) < sse + tol/2. The gap has two parts. Summing n
// terms in any order is off by at most n·u relative to the sum of their
// magnitudes (u = 2^-53), which puts A within 3(n+3)u·sse and E within
// (n+3)u·sse of the true score: 4(n+3)u·sse = 2e·sse together, taken
// twice for tol and twice again for the higher-order terms. And each
// side's exact score is taken about a computed mean that is off by up to
// (n+1)u·max|y|, which adds up to n·((n+1)u·max|y|)² <= n·(e·max|y|)²/4
// to E; it matters only for targets whose spread is ~1e-6 of their size.
// tol grows with n instead of capping it: at n = 80 000 it is 1.4e-10·sse.
func (sc *splitScratch) bestSplit(X [][]float64, y []float64, idx []int, mean, sse float64, feats []int) (feat int, thresh float64, ok bool) {
	n := len(idx)
	dev := sc.dev[:n]
	var maxAbs float64
	for k, i := range idx {
		dev[k] = y[i] - mean
		if a := math.Abs(y[i]); a > maxAbs {
			maxAbs = a
		}
	}

	cands := sc.cands[:0]
	minApprox := sse
	raw, sorted := sc.raw[:n], sc.sorted[:n]
	for _, fi := range feats {
		lo := X[idx[0]][fi]
		hi := lo
		for k, i := range idx {
			v := X[i][fi]
			raw[k] = v
			if v < lo {
				lo = v
			} else if v > hi {
				hi = v
			}
		}
		if lo == hi {
			// A constant column (NaNs aside, which no threshold keeps
			// left) has no candidate that leaves rows on both sides.
			continue
		}
		copy(sorted, raw)
		sort.Float64s(sorted)
		order := sc.splitCandidates(sorted)
		ths := append(sc.ths[:0], order...)
		sort.Float64s(ths)
		sc.ths = ths
		m := len(ths)

		pre := slices.Grow(sc.pre[:0], m+1)[:m+1]
		clear(pre)
		sc.pre = pre
		for k, v := range raw {
			j, end := 0, m
			for j < end {
				mid := int(uint(j+end) >> 1)
				if v <= ths[mid] {
					end = mid
				} else {
					j = mid + 1
				}
			}
			d := dev[k]
			pre[j].n++
			pre[j].s += d
			pre[j].q += d * d
		}
		suf := append(sc.suf[:0], pre...)
		sc.suf = suf
		var run bucket
		for j := m; j >= 0; j-- {
			b := suf[j]
			suf[j] = run
			run.add(b)
		}
		for j := 1; j <= m; j++ {
			pre[j].add(pre[j-1])
		}

		for _, th := range order {
			p := sort.SearchFloat64s(ths, th)
			if p == m {
				continue // a NaN threshold: no row is <= it
			}
			l, r := pre[p], suf[p]
			if l.n == 0 || r.n == 0 {
				continue
			}
			a := l.sse() + r.sse()
			if a < minApprox {
				minApprox = a
			}
			cands = append(cands, candidate{feat: fi, thresh: th, approx: a})
		}
	}
	sc.cands = cands

	e := float64(n+3) * 0x1p-52
	limit := minApprox + 8*e*sse + float64(n)*(e*maxAbs)*(e*maxAbs)
	bestScore := sse
	for _, c := range cands {
		// Written so that a NaN score or limit (targets near overflow)
		// skips nothing.
		if c.approx > limit {
			continue
		}
		if s := splitSSE(X, y, idx, c.feat, c.thresh); s < bestScore {
			bestScore, feat, thresh, ok = s, c.feat, c.thresh, true
		}
	}
	return feat, thresh, ok
}

// splitSSE is lsse+rsse of one split that leaves rows on both sides, with
// meanSSE's arithmetic on each side: the mean from a sum in idx order,
// then the squared deviations in idx order.
func splitSSE(X [][]float64, y []float64, idx []int, f int, th float64) float64 {
	var lmean, rmean float64
	nLeft := 0
	for _, i := range idx {
		if X[i][f] <= th {
			lmean += y[i]
			nLeft++
		} else {
			rmean += y[i]
		}
	}
	lmean /= float64(nLeft)
	rmean /= float64(len(idx) - nLeft)
	var lsse, rsse float64
	for _, i := range idx {
		if X[i][f] <= th {
			d := y[i] - lmean
			lsse += d * d
		} else {
			d := y[i] - rmean
			rsse += d * d
		}
	}
	if math.IsNaN(lsse) {
		lsse = 0
	}
	if math.IsNaN(rsse) {
		rsse = 0
	}
	return lsse + rsse
}

// partition stably reorders idx into the rows with X[i][f] <= th followed
// by the rest, and returns the two halves.
func (sc *splitScratch) partition(X [][]float64, idx []int, f int, th float64) (left, right []int) {
	rest := sc.right[:0]
	l := 0
	for _, i := range idx {
		if X[i][f] <= th {
			idx[l] = i
			l++
		} else {
			rest = append(rest, i)
		}
	}
	copy(idx[l:], rest)
	return idx[:l], idx[l:]
}

// splitCandidates returns threshold candidates for one (sorted) feature
// column: all distinct-value midpoints when few values exist, quantile
// positions otherwise — with distinct values merged in so heavily skewed
// discrete features (390 ones, 9 eights) remain splittable. The result is
// valid until the next call.
func (sc *splitScratch) splitCandidates(sorted []float64) []float64 {
	if len(sorted) < 2 || sorted[0] == sorted[len(sorted)-1] {
		return nil
	}
	first, last := sorted[0], sorted[len(sorted)-1]
	distinct := append(sc.distinct[:0], first)
	prev := first
	for _, v := range sorted[1:] {
		if v != prev {
			distinct = append(distinct, v)
			prev = v
			if len(distinct) > 32 {
				break
			}
		}
	}
	sc.distinct = distinct
	out := sc.out[:0]
	if len(distinct) <= 32 {
		for i := 1; i < len(distinct); i++ {
			out = append(out, (distinct[i-1]+distinct[i])/2)
		}
		sc.out = out
		return out
	}
	// The quantile picks come out non-decreasing, so one already taken is
	// the last one taken.
	for q := 1; q < 16; q++ {
		th := sorted[len(sorted)*q/16]
		if th == first || th == last || (len(out) > 0 && th == out[len(out)-1]) {
			continue
		}
		out = append(out, th)
	}
	// Guarantee the extremes remain separable even under heavy skew.
	lo := (first + distinct[1]) / 2
	hiIdx := len(sorted) - 1
	for hiIdx > 0 && sorted[hiIdx] == last {
		hiIdx--
	}
	hi := (sorted[hiIdx] + last) / 2
	if !slices.Contains(out, lo) {
		out = append(out, lo)
	}
	if !slices.Contains(out, hi) {
		out = append(out, hi)
	}
	sc.out = out
	return out
}

func meanSSE(y []float64, idx []int) (mean, sse float64) {
	if len(idx) == 0 {
		return 0, 0
	}
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	for _, i := range idx {
		d := y[i] - mean
		sse += d * d
	}
	if math.IsNaN(sse) {
		sse = 0
	}
	return mean, sse
}
