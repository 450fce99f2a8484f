package model

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"tscout/internal/sim"
)

// Forest is a random forest of CART regression trees: bootstrap-sampled
// training sets and random feature subsets per split.
type Forest struct {
	// Trees is the ensemble size (default 20).
	Trees int
	// MaxDepth bounds tree depth (default 12).
	MaxDepth int
	// Seed drives bootstrapping.
	Seed int64
	// AllFeatures makes every split try every feature, as scikit-learn's
	// regression forests do by default; otherwise a split tries half of
	// them plus one. With a few features, one of them the hardware
	// context that one machine holds constant, a split that draws the
	// constant one must cut on a single other feature: a network read's
	// bytes without its message count, say. The default is the cheaper
	// one. On a three-feature OU whose third feature is constant, every
	// split then searches both others instead of one and a third on
	// average, and the benchmark's tpcc_autopilot learn pass spent about
	// half again the CPU a point. Dropping the clock feature instead, so
	// that no column is constant, does not serve the evaluation: a
	// training set that spans two machines needs the clock, and without
	// it Fig. 7's online networking error rose from 0.13 to 0.21 µs.
	AllFeatures bool
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

// minSplitSize is the smallest node either forest splits.
const minSplitSize = 4

// Train implements Trainer.
func (f Forest) Train(X [][]float64, y []float64) (Model, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, ErrNoData
	}
	rng := rand.New(sim.NewPCG(f.Seed, 1))
	mtry := mtryFor(len(X[0]))
	if f.AllFeatures {
		mtry = len(X[0])
	}
	idx := make([]int, len(X))
	var sc splitScratch
	sc.encode(X)
	ens := &forestModel{trees: make([][]node, f.trees())}
	var tree []node
	for t := range ens.trees {
		bootstrap(idx, rng)
		tree = buildTree(tree[:0], X, y, idx, f.maxDepth(), minSplitSize, mtry, rng, &sc, 0)
		ens.trees[t] = slices.Clone(tree)
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

type forestModel struct{ trees [][]node }

// Predict implements Model: the ensemble mean.
func (m *forestModel) Predict(x []float64) float64 {
	var sum float64
	for _, t := range m.trees {
		sum += predict(t, x)
	}
	return sum / float64(len(m.trees))
}

// node is one node of a tree, which is a []node in pre-order: a split's
// left child is the node after it and its right child is tree[right]. The
// root is tree[0], so no child has index 0 and a leaf has right == 0.
type node struct {
	value     float64 // a leaf's prediction
	threshold float64 // a split sends x left when x[feature] <= threshold
	feature   int32
	right     int32
}

func predict(tree []node, x []float64) float64 {
	i := 0
	for tree[i].right != 0 {
		n := &tree[i]
		if int(n.feature) < len(x) && x[n.feature] <= n.threshold {
			i++
		} else {
			i = int(n.right)
		}
	}
	return tree[i].value
}

// buildTree grows one CART regression tree over the bootstrap sample idx,
// appends its nodes to tree in pre-order and returns the slice, so a tree
// rebuilt into its own slice[:0] allocates nothing once the slice is large
// enough. It reorders idx in place: each split stably partitions its node's
// rows into a left and a right sub-slice, so row order within a side — and
// with it every floating-point sum taken in that order — is the sample's.
//
// constant has bit f set when an ancestor saw one value in coded column f
// over its rows. A column constant on a set is constant on its subsets, so
// no descendant looks at it again; the permutation is drawn all the same.
// Columns 64 and up have no bit — the shifts yield zero — and are looked at
// every time.
func buildTree(tree []node, X [][]float64, y []float64, idx []int, depth, minSamples, mtry int, rng *rand.Rand, sc *splitScratch, constant uint64) []node {
	mean, sse := meanSSE(y, idx)
	if depth <= 0 || len(idx) < minSamples || sse < 1e-12 {
		return append(tree, node{value: mean})
	}
	feats := sc.perm(rng, len(X[0]))[:mtry]
	feat, thresh, constant, ok := sc.bestSplit(X, y, idx, mean, sse, feats, constant)
	if !ok {
		return append(tree, node{value: mean})
	}
	left, right := sc.partition(idx, sc.sides(X, idx, feat, thresh))
	at := len(tree)
	tree = append(tree, node{feature: int32(feat), threshold: thresh})
	tree = buildTree(tree, X, y, left, depth-1, minSamples, mtry, rng, sc, constant)
	tree[at].right = int32(len(tree))
	return buildTree(tree, X, y, right, depth-1, minSamples, mtry, rng, sc, constant)
}

// perm is rng.Perm(n) drawn into scratch: the same Intn(i+1) calls for
// i = 0…n-1, the i = 0 one included, so the permutation and the rng's state
// afterwards are Perm's bit for bit. It is valid until the next call.
func (sc *splitScratch) perm(rng *rand.Rand, n int) []int {
	m := slices.Grow(sc.feats[:0], n)[:n]
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	sc.feats = m
	return m
}

// maxCodes is how many values a coded column may hold: what a byte tells apart.
const maxCodes = 256

// splitScratch holds the coded columns of one training matrix and the
// buffers of one split search. A node is finished with the buffers before
// it recurses, so one value serves every node of every tree of a
// Forest.Train, and a WindowedForest keeps one across its Refits.
type splitScratch struct {
	cols     []codedColumn // cols[f] is X's column f
	codeSlab []uint8
	valSlab  []float64
	hist     [maxCodes]bucket // one node's rows of one coded column, by code

	raw, sorted []float64 // an uncoded column in idx order, and sorted
	dev         []float64 // y - node mean, in idx order
	left        []bool    // sides' result
	right       []int     // the right side during partition
	vs          []float64 // the column's present values, ascending
	ends        []int     // ends[r] rows hold vs[r] or less
	out         []float64 // candidateThresholds' result
	ths         []float64 // the same thresholds, sorted
	pre, suf    []bucket  // rows at or left of / right of each sorted threshold
	cands       []candidate
	feats       []int // perm's result
}

// codedColumn is a feature column as the sorted table of its distinct values
// and a byte per row: codes[i] is the rank of X[i][f] in vals. codes is nil
// for a column encode left alone.
type codedColumn struct {
	codes []uint8
	vals  []float64
	seen  []uint8 // while encoding: how many values were met before vals[j]
}

// encode sizes the scratch for X and codes every column of at most maxCodes
// distinct values, none NaN or -0: NaN equals nothing, its own table entry
// included, and -0 equals +0 while a threshold taken from one differs from
// the other's in bits. ±Inf order and compare like any value. Values are
// found by search and insertion in the table, never by sorting the column:
// rows are coded by first appearance as they are read and ranked once the
// table is complete. Rows of unequal length leave every column uncoded.
func (sc *splitScratch) encode(X [][]float64) {
	n, nFeat := len(X), len(X[0])
	sc.dev = slices.Grow(sc.dev[:0], n)
	sc.left = slices.Grow(sc.left[:0], n)
	sc.right = slices.Grow(sc.right[:0], n)
	sc.cols = slices.Grow(sc.cols[:0], nFeat)[:nFeat]
	sc.codeSlab = slices.Grow(sc.codeSlab[:0], (n+maxCodes)*nFeat)
	sc.valSlab = slices.Grow(sc.valSlab[:0], maxCodes*nFeat)
	for f := range sc.cols {
		bytes := sc.codeSlab[f*(n+maxCodes) : (f+1)*(n+maxCodes)]
		sc.cols[f] = codedColumn{codes: bytes[:n], seen: bytes[n:n], vals: sc.valSlab[f*maxCodes : f*maxCodes]}
	}
	for i, row := range X {
		if len(row) != nFeat {
			clear(sc.cols)
			return
		}
		for f, v := range row {
			c := &sc.cols[f]
			if c.codes == nil {
				continue
			}
			if i > 0 && math.Float64bits(v) == math.Float64bits(X[i-1][f]) {
				c.codes[i] = c.codes[i-1] // the row above, bit for bit: no search
				continue
			}
			j := firstAtOrAbove(c.vals, v)
			if minusZero := math.Float64bits(v) == 1<<63; j == len(c.vals) || c.vals[j] != v || minusZero {
				if len(c.vals) == maxCodes || math.IsNaN(v) || minusZero {
					c.codes = nil
					continue
				}
				c.seen = slices.Insert(c.seen, j, uint8(len(c.vals)))
				c.vals = slices.Insert(c.vals, j, v)
			}
			c.codes[i] = c.seen[j]
		}
	}
	for _, c := range sc.cols {
		var rank [maxCodes]uint8
		for j, s := range c.seen {
			rank[s] = uint8(j)
		}
		for i, s := range c.codes {
			c.codes[i] = rank[s]
		}
	}
}

// firstAtOrAbove is the first j with v <= sorted[j], len(sorted) when there
// is none: NaN entries (sort.Float64s puts them first) are passed over, and
// a NaN v lands past the end, as X[i][f] <= th sends it right.
func firstAtOrAbove(sorted []float64, v float64) int {
	j, end := 0, len(sorted)
	for j < end {
		mid := int(uint(j+end) >> 1)
		if v <= sorted[mid] {
			end = mid
		} else {
			j = mid + 1
		}
	}
	return j
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
// slot of the first sorted threshold at or above its value (NaN values
// land right of every threshold, as X[i][f] <= th sends them), and prefix
// and suffix sums over the <= 33 slots give every candidate's side counts
// exactly and its score approximately: SSE = Σd² - (Σd)²/n holds for any
// centre, and centring on the node mean keeps Σd² <= sse, so the
// subtraction cancels nothing large. A coded column's rows go to their
// code's bucket first and the buckets to the slots, in value order: the
// counts are the same integers, and the sums are the same terms summed in
// another order, which the bound below allows. Only candidates within tol
// of the lowest approximate score are then scored with the exhaustive
// search's own arithmetic, in its order and with its strict <; on a coded
// column that arithmetic branches on code <= cth, the same side for every
// row as X[i][f] <= th because codes are ranks in the sorted table.
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
func (sc *splitScratch) bestSplit(X [][]float64, y []float64, idx []int, mean, sse float64, feats []int, constant uint64) (feat int, thresh float64, _ uint64, ok bool) {
	n := len(idx)
	dev := sc.dev[:n]
	var maxAbs float64
	for k, i := range idx {
		dev[k] = y[i] - mean
		if a := math.Abs(y[i]); a > maxAbs {
			maxAbs = a
		}
	}

	sc.cands = sc.cands[:0]
	minApprox := sse
	for _, fi := range feats {
		if constant>>uint(fi)&1 != 0 {
			continue
		}
		var order []float64
		if c := sc.cols[fi]; c.codes != nil {
			if order = sc.countColumn(c, idx, dev); len(sc.vs) == 1 {
				constant |= 1 << uint(fi)
			}
		} else {
			order = sc.sortColumn(X, fi, idx, dev)
		}
		minApprox = sc.score(fi, order, minApprox)
	}

	e := float64(n+3) * 0x1p-52
	limit := minApprox + 8*e*sse + float64(n)*(e*maxAbs)*(e*maxAbs)
	bestScore := sse
	for _, c := range sc.cands {
		// Written so that a NaN score or limit (targets near overflow)
		// skips nothing.
		if c.approx > limit {
			continue
		}
		if s := splitSSE(y, idx, sc.sides(X, idx, c.feat, c.thresh)); s < bestScore {
			bestScore, feat, thresh, ok = s, c.feat, c.thresh, true
		}
	}
	return feat, thresh, constant, ok
}

// countColumn readies a coded column for score without sorting anything:
// one pass drops each row's (1, d, d²) into hist[code]; the codes present,
// with their counts, are the sorted column; and a merge of the present
// values against the sorted thresholds fills the slots. It returns
// candidateThresholds' result and leaves the present values in sc.vs.
func (sc *splitScratch) countColumn(c codedColumn, idx []int, dev []float64) []float64 {
	hist, col, vals := &sc.hist, c.codes, c.vals
	clear(hist[:len(vals)])
	for k, i := range idx {
		h, d := &hist[col[i]], dev[k]
		h.n++
		h.s += d
		h.q += d * d
	}
	sc.vs, sc.ends = sc.vs[:0], sc.ends[:0]
	rows := 0
	for c, v := range vals {
		if hist[c].n > 0 {
			rows += hist[c].n
			sc.vs, sc.ends = append(sc.vs, v), append(sc.ends, rows)
		}
	}
	order := sc.candidateThresholds(sc.vs, sc.ends)
	j := 0
	for c, v := range vals {
		if hist[c].n == 0 {
			continue
		}
		// Not v > ths[j]: a NaN threshold (the midpoint of -Inf and +Inf)
		// sorts first and must be stepped over.
		for j < len(sc.ths) && !(v <= sc.ths[j]) {
			j++
		}
		sc.pre[j].add(hist[c])
	}
	return order
}

// sortColumn readies an uncoded column for score: gather it in idx order,
// sort a copy for splitCandidates, and drop each row's (1, d, d²) into the
// slot of the first sorted threshold at or above its value.
func (sc *splitScratch) sortColumn(X [][]float64, fi int, idx []int, dev []float64) []float64 {
	n := len(idx)
	sc.raw, sc.sorted = slices.Grow(sc.raw[:0], n), slices.Grow(sc.sorted[:0], n)
	raw, sorted := sc.raw[:n], sc.sorted[:n]
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
		// A constant column (NaNs aside, which no threshold keeps left)
		// has no candidate that leaves rows on both sides.
		return nil
	}
	copy(sorted, raw)
	sort.Float64s(sorted)
	order := sc.splitCandidates(sorted)
	for k, v := range raw {
		b, d := &sc.pre[firstAtOrAbove(sc.ths, v)], dev[k]
		b.n++
		b.s += d
		b.q += d * d
	}
	return order
}

// score sums the slots into the rows left and right of each sorted
// threshold and appends feature fi's candidates — the thresholds of order
// that leave rows on both sides, in order's order — to sc.cands. It returns
// the lowest approximate score so far.
func (sc *splitScratch) score(fi int, order []float64, minApprox float64) float64 {
	if len(order) == 0 {
		return minApprox
	}
	pre, ths := sc.pre, sc.ths
	m := len(ths)
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
		sc.cands = append(sc.cands, candidate{feat: fi, thresh: th, approx: a})
	}
	return minApprox
}

// sides reports, for each row of idx in order, whether the split (f, th)
// sends it left. On a coded column X[i][f] <= th is codes[f][i] <= cth for
// cth the last code whose value is <= th — the table is sorted, so it is the
// same branch on every row — and no row pointer is chased. th must keep a
// row left (every candidate does), so that code exists.
func (sc *splitScratch) sides(X [][]float64, idx []int, f int, th float64) []bool {
	left := sc.left[:len(idx)]
	if col, vals := sc.cols[f].codes, sc.cols[f].vals; col != nil {
		cth := uint8(sort.Search(len(vals), func(c int) bool { return !(vals[c] <= th) }) - 1)
		for k, i := range idx {
			left[k] = col[i] <= cth
		}
		return left
	}
	for k, i := range idx {
		left[k] = X[i][f] <= th
	}
	return left
}

// splitSSE is lsse+rsse of one split that leaves rows on both sides, with
// meanSSE's arithmetic on each side: the mean from a sum in idx order,
// then the squared deviations in idx order.
func splitSSE(y []float64, idx []int, left []bool) float64 {
	var lmean, rmean float64
	nLeft := 0
	for k, i := range idx {
		if left[k] {
			lmean += y[i]
			nLeft++
		} else {
			rmean += y[i]
		}
	}
	lmean /= float64(nLeft)
	rmean /= float64(len(idx) - nLeft)
	var lsse, rsse float64
	for k, i := range idx {
		if left[k] {
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

// partition stably reorders idx into the rows sides sends left followed by
// the rest, and returns the two halves.
func (sc *splitScratch) partition(idx []int, left []bool) (l, r []int) {
	rest := sc.right[:0]
	n := 0
	for k, i := range idx {
		if left[k] {
			idx[n] = i
			n++
		} else {
			rest = append(rest, i)
		}
	}
	copy(idx[n:], rest)
	return idx[:n], idx[n:]
}

// splitCandidates is candidateThresholds of a sorted column, run-length
// encoded with the oracle's own v != prev: each NaN is a run of its own, and
// a run of zeros of both signs goes by its first — a quantile pick inside it
// can carry the other sign than sorted[pos] does, which no <= can tell.
func (sc *splitScratch) splitCandidates(sorted []float64) []float64 {
	sc.vs, sc.ends = sc.vs[:0], sc.ends[:0]
	for k, v := range sorted {
		if k > 0 && v == sc.vs[len(sc.vs)-1] {
			sc.ends[len(sc.ends)-1]++
		} else {
			sc.vs, sc.ends = append(sc.vs, v), append(sc.ends, k+1)
		}
	}
	return sc.candidateThresholds(sc.vs, sc.ends)
}

// candidateThresholds returns the thresholds to try on a column whose sorted
// form is vs[r] at positions ends[r-1] to ends[r]-1: all distinct-value
// midpoints when few values exist, quantile positions otherwise — with the
// two extreme midpoints merged in so heavily skewed discrete features (390
// ones, 9 eights) remain splittable. It leaves them sorted in sc.ths and
// sc.pre emptied: a slot per sorted threshold, for the rows at or below it
// and above the one before, and a last slot for the rows right of them all.
// All three are valid until the next call.
func (sc *splitScratch) candidateThresholds(vs []float64, ends []int) []float64 {
	out := sc.out[:0]
	if len(vs) <= 32 {
		for r := 1; r < len(vs); r++ {
			out = append(out, (vs[r-1]+vs[r])/2)
		}
	} else {
		first, last, n := vs[0], vs[len(vs)-1], ends[len(ends)-1]
		// The quantile picks come out non-decreasing, so the run holding one
		// is at or after the run holding the one before, and one already
		// taken is the last one taken.
		r := 0
		for q := 1; q < 16; q++ {
			for pos := n * q / 16; ends[r] <= pos; {
				r++
			}
			th := vs[r]
			if th == first || th == last || (len(out) > 0 && th == out[len(out)-1]) {
				continue
			}
			out = append(out, th)
		}
		// Guarantee the extremes remain separable even under heavy skew.
		lo, hi := (first+vs[1])/2, (vs[len(vs)-2]+last)/2
		if !slices.Contains(out, lo) {
			out = append(out, lo)
		}
		if !slices.Contains(out, hi) {
			out = append(out, hi)
		}
	}
	sc.out = out
	sc.ths = append(sc.ths[:0], out...)
	sort.Float64s(sc.ths)
	sc.pre = slices.Grow(sc.pre[:0], len(out)+1)[:len(out)+1]
	clear(sc.pre)
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
