package model

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/dbms"
	"tscout/internal/wal"
	"tscout/internal/workload"
)

// sameTree reports the first place two trees differ — shape, split feature,
// or the bits of a threshold or leaf value — or "" when they are identical.
func sameTree(got, want *treeNode, path string) string {
	switch {
	case got.leaf != want.leaf:
		return fmt.Sprintf("%s: leaf %v, want %v", path, got.leaf, want.leaf)
	case got.leaf:
		if math.Float64bits(got.value) != math.Float64bits(want.value) {
			return fmt.Sprintf("%s: value %v, want %v", path, got.value, want.value)
		}
		return ""
	case got.feature != want.feature || math.Float64bits(got.threshold) != math.Float64bits(want.threshold):
		return fmt.Sprintf("%s: split x[%d] <= %v, want x[%d] <= %v",
			path, got.feature, got.threshold, want.feature, want.threshold)
	}
	if d := sameTree(got.left, want.left, path+"L"); d != "" {
		return d
	}
	return sameTree(got.right, want.right, path+"R")
}

func countNodes(n *treeNode) int {
	if n.leaf {
		return 1
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// diffTrees grows a tree three ways from the same seed — bootstrap, then
// the split search, on one rng stream as Forest.Train does: from the scratch
// Forest.Train builds, from the same scratch with its codes taken away (at
// these sizes every NaN-free column is coded, so nothing else would reach
// the sorted path), and by the oracle. It returns sameTree's first complaint
// and the tree's size.
func diffTrees(X [][]float64, y []float64, depth, minSamples int, seed int64) (diff string, nodes int) {
	mtry := mtryFor(len(X[0]))
	sample := func() ([]int, *rand.Rand) {
		rng := rand.New(rand.NewSource(seed))
		idx := make([]int, len(X))
		bootstrap(idx, rng)
		return idx, rng
	}
	idx, rng := sample()
	want := buildTreeOracle(X, y, idx, depth, minSamples, mtry, rng)
	var sc splitScratch
	for _, path := range []string{"coded", "sorted"} {
		sc.encode(X)
		if path == "sorted" {
			clear(sc.cols)
		}
		idx, rng = sample()
		got := buildTree(X, y, idx, depth, minSamples, mtry, rng, &sc, 0)
		if d := sameTree(got, want, path+" root"); d != "" {
			return d, countNodes(want)
		}
	}
	return "", countNodes(want)
}

// synthKinds are the matrix families of the differential test; each is
// drawn at several sizes and arities.
var synthKinds = []struct {
	name string
	gen  func(rng *rand.Rand, n, arity int) ([][]float64, []float64)
}{
	{"discrete", func(rng *rand.Rand, n, arity int) ([][]float64, []float64) {
		return synth(rng, n, arity, func(int) float64 { return float64(rng.Intn(6)) }, 1)
	}},
	{"continuous", func(rng *rand.Rand, n, arity int) ([][]float64, []float64) {
		return synth(rng, n, arity, func(int) float64 { return rng.NormFloat64() * 50 }, 1)
	}},
	{"skewed", func(rng *rand.Rand, n, arity int) ([][]float64, []float64) {
		return synth(rng, n, arity, func(int) float64 {
			if rng.Intn(40) == 0 {
				return 8
			}
			return 1
		}, 1)
	}},
	// Every odd column repeats the one before it, so the two score
	// exactly alike at every threshold and only the strict < separates
	// them.
	{"duplicate columns", func(rng *rand.Rand, n, arity int) ([][]float64, []float64) {
		X, y := synth(rng, n, arity, func(int) float64 { return math.Floor(rng.Float64() * 40) }, 1)
		for _, row := range X {
			for f := 1; f < len(row); f += 2 {
				row[f] = row[f-1]
			}
		}
		return X, y
	}},
	{"constant columns", func(rng *rand.Rand, n, arity int) ([][]float64, []float64) {
		return synth(rng, n, arity, func(f int) float64 {
			if f%2 == 0 {
				return 2.1
			}
			return rng.Float64()
		}, 1)
	}},
	{"NaN and Inf features", func(rng *rand.Rand, n, arity int) ([][]float64, []float64) {
		return synth(rng, n, arity, func(int) float64 {
			switch rng.Intn(12) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			}
			return float64(rng.Intn(50))
		}, 1)
	}},
	// Codable, unlike NaN: -Inf and +Inf are table entries like any other,
	// and where they are neighbours their midpoint is a NaN threshold.
	{"Inf without NaN", func(rng *rand.Rand, n, arity int) ([][]float64, []float64) {
		return synth(rng, n, arity, func(int) float64 {
			switch rng.Intn(8) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return float64(rng.Intn(40))
		}, 1)
	}},
	{"only Inf", func(rng *rand.Rand, n, arity int) ([][]float64, []float64) {
		return synth(rng, n, arity, func(f int) float64 {
			if f == 0 {
				return float64(rng.Intn(7))
			}
			return math.Inf(rng.Intn(2)*2 - 1)
		}, 1)
	}},
	// Column f holds up to 200 + 40·f distinct values: columns 0 and 1 are
	// coded, 2 and up are not once the rows outnumber the cap.
	{"straddles 256 values", func(rng *rand.Rand, n, arity int) ([][]float64, []float64) {
		return synth(rng, n, arity, func(f int) float64 { return float64(rng.Intn(200 + 40*f)) }, 1)
	}},
	// One more value than the all-midpoints rule takes: the quantile picks
	// are read off the cumulative counts from the root down.
	{"33 values", func(rng *rand.Rand, n, arity int) ([][]float64, []float64) {
		return synth(rng, n, arity, func(int) float64 { return float64(rng.Intn(33)) * 1.5 }, 1)
	}},
	// Column f counts 0, 1, … 254+f and starts again: exactly 255, 256, 257,
	// … values, so the last coded column and the first uncoded one sit side
	// by side whatever the draw.
	{"at the cap", func(rng *rand.Rand, n, arity int) ([][]float64, []float64) {
		next := make([]int, arity)
		return synth(rng, n, arity, func(f int) float64 {
			next[f]++
			return float64(next[f] % (255 + f))
		}, 1)
	}},
	// -0 equals +0, so a table cannot tell them apart: the column is left to
	// the sorted path.
	{"signed zeros", func(rng *rand.Rand, n, arity int) ([][]float64, []float64) {
		return synth(rng, n, arity, func(int) float64 {
			if v := float64(rng.Intn(5) - 2); v != 0 {
				return v
			}
			return math.Copysign(0, float64(rng.Intn(2)*2-1))
		}, 1)
	}},
	// Rows longer than the first: nothing is coded.
	{"ragged rows", func(rng *rand.Rand, n, arity int) ([][]float64, []float64) {
		X, y := synth(rng, n, arity, func(int) float64 { return float64(rng.Intn(12)) }, 1)
		for i := 1; i < len(X); i += 3 {
			X[i] = append(X[i], 1, 2)
		}
		return X, y
	}},
	// Targets whose whole spread is a few 1e-7: nodes fall under the
	// sse < 1e-12 leaf cut after a split or two.
	{"tiny sse", func(rng *rand.Rand, n, arity int) ([][]float64, []float64) {
		return synth(rng, n, arity, func(int) float64 { return float64(rng.Intn(9)) }, 1e-8)
	}},
	// Targets 1e13 times their spread: the side means lose digits and
	// the exhaustive score with them, the case the tolerance's max|y|
	// term is for (without it the n=3000 draw picks another root split).
	{"offset targets", func(rng *rand.Rand, n, arity int) ([][]float64, []float64) {
		X, y := synth(rng, n, arity, func(int) float64 { return rng.Float64() * 10 }, 1e-6)
		for i := range y {
			y[i] += 1e9
		}
		return X, y
	}},
}

// synth draws an n×arity matrix cell by cell and a target that steps on
// x[0], slopes on the last column and carries noise, scaled by yScale.
func synth(rng *rand.Rand, n, arity int, cell func(f int) float64, yScale float64) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, arity)
		for f := range X[i] {
			X[i][f] = cell(f)
		}
		t := rng.NormFloat64()
		if a := X[i][0]; a > 3 {
			t += 40
		}
		if b := X[i][arity-1]; !math.IsNaN(b) && !math.IsInf(b, 0) {
			t += 2 * b
		}
		y[i] = t * yScale
	}
	return X, y
}

// TestBuildTreeMatchesOracle is the differential proof behind "bit-equal
// trees": 9 draws of each family, n from 4 to 3000, arity 1 to 8, each down
// the coded and the sorted path.
func TestBuildTreeMatchesOracle(t *testing.T) {
	sizes := []int{4, 5, 9, 33, 120, 400, 1000, 1700, 3000}
	cases := 0
	for k, kind := range synthKinds {
		for s, n := range sizes {
			seed := int64(k*100 + s)
			rng := rand.New(rand.NewSource(seed))
			arity := 1 + (k+s)%8
			X, y := kind.gen(rng, n, arity)
			if diff, _ := diffTrees(X, y, 12, 4, seed); diff != "" {
				t.Errorf("%s n=%d arity=%d: %s", kind.name, n, arity, diff)
			}
			cases++
		}
	}
	if cases < 120 {
		t.Fatalf("only %d cases", cases)
	}
}

// trainingGroup is one (OU, arity) group of points as a trainer sees it.
type trainingGroup struct {
	key ouKey
	X   [][]float64
	y   []float64
}

// tpccGroups is what the trainers really see: every (OU, arity) group of a
// small instrumented TPC-C run, read back through FromArchive, in (OU,
// arity) order.
func tpccGroups(tb testing.TB) []trainingGroup {
	var buf bytes.Buffer
	w := archive.NewWriter(&buf)
	srv, err := dbms.NewServer(dbms.Config{
		Seed: 77, NoiseSigma: 0.03, Instrument: true, Sink: w,
		WAL: wal.Config{GroupSize: 8, FlushIntervalNS: 100_000},
	})
	if err != nil {
		tb.Fatal(err)
	}
	gen := &workload.TPCC{Warehouses: 1, CustomersPerDistrict: 10, Items: 100, InitialOrdersPerDistrict: 10}
	if err := gen.Setup(srv); err != nil {
		tb.Fatal(err)
	}
	srv.TS.Sampler().SetAllRates(100)
	if _, err := workload.Run(srv, gen, workload.Config{Terminals: 4, Transactions: 150, Seed: 77}); err != nil {
		tb.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	r, err := archive.NewReader(buf.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	points, err := FromArchive(r, []float64{2.1})
	if err != nil {
		tb.Fatal(err)
	}

	byOU := make(map[ouKey]*trainingGroup)
	var groups []*trainingGroup
	for _, p := range points {
		g := byOU[keyOf(p)]
		if g == nil {
			g = &trainingGroup{key: keyOf(p)}
			byOU[g.key] = g
			groups = append(groups, g)
		}
		g.X, g.y = append(g.X, p.Features), append(g.y, p.TargetUS)
	}
	sort.Slice(groups, func(i, j int) bool {
		a, b := groups[i].key, groups[j].key
		return a.ou < b.ou || (a.ou == b.ou && a.arity < b.arity)
	})
	out := make([]trainingGroup, len(groups))
	for i, g := range groups {
		out[i] = *g
	}
	return out
}

// TestBuildTreeMatchesOracleOnTPCC repeats the comparison on tpccGroups,
// four trees each.
func TestBuildTreeMatchesOracleOnTPCC(t *testing.T) {
	points, splits := 0, 0
	for _, g := range tpccGroups(t) {
		points += len(g.X)
		for seed := int64(0); seed < 4; seed++ {
			diff, nodes := diffTrees(g.X, g.y, 10, 4, seed)
			if diff != "" {
				t.Errorf("OU %d arity %d (%d rows) seed %d: %s", g.key.ou, g.key.arity, len(g.X), seed, diff)
			}
			splits += nodes / 2
		}
	}
	if points < 2000 || splits < 200 {
		t.Fatalf("%d points and %d splits compared: the run is too small to mean anything", points, splits)
	}
}

// rowVisits is how many rows the split search looked at to grow tree over
// idx, counting a row once per feature tried at each node that split.
func rowVisits(tree *treeNode, X [][]float64, idx []int, mtry int) int {
	if tree.leaf {
		return 0
	}
	var left, right []int
	for _, i := range idx {
		if X[i][tree.feature] <= tree.threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return len(idx)*mtry + rowVisits(tree.left, X, left, mtry) + rowVisits(tree.right, X, right, mtry)
}

// BenchmarkBuildTree is what a row-visit costs down each path: the TPC-C
// groups (every column coded) as they are and with their codes taken away,
// and a continuous matrix no column of which can be coded. It backs the
// split-search table in EXPERIMENTS.md.
func BenchmarkBuildTree(b *testing.B) {
	tpcc := tpccGroups(b)
	var continuous trainingGroup
	continuous.X, continuous.y = synthKinds[1].gen(rand.New(rand.NewSource(5)), 3000, 6)
	for _, bc := range []struct {
		name   string
		groups []trainingGroup
		coded  bool
	}{
		{"tpcc/coded", tpcc, true},
		{"tpcc/sorted", tpcc, false},
		{"continuous/sorted", []trainingGroup{continuous}, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var sc splitScratch
			rng := rand.New(rand.NewSource(1))
			visits := 0
			for n := 0; n < b.N; n++ {
				for _, g := range bc.groups {
					b.StopTimer()
					idx := make([]int, len(g.X))
					bootstrap(idx, rng)
					sample := slices.Clone(idx)
					b.StartTimer()
					sc.encode(g.X)
					if !bc.coded {
						clear(sc.cols)
					}
					mtry := mtryFor(len(g.X[0]))
					tree := buildTree(g.X, g.y, idx, 10, 4, mtry, rng, &sc, 0)
					b.StopTimer()
					visits += rowVisits(tree, g.X, sample, mtry)
					b.StartTimer()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visits), "ns/row-visit")
		})
	}
}

// TestBuildTreeAllocations holds buildTree to a constant number of
// allocations per returned node (the node, and rng.Perm at each split),
// whatever the number of candidates it scored, on a matrix no column of
// which is coded and on one where every column is.
func TestBuildTreeAllocations(t *testing.T) {
	for _, kind := range []int{1, 0} {
		X, y := synthKinds[kind].gen(rand.New(rand.NewSource(5)), 2000, 6)
		rng := rand.New(rand.NewSource(5))
		idx := make([]int, len(X))
		var sc splitScratch
		sc.encode(X)
		if coded := sc.cols[0].codes != nil; coded != (kind == 0) {
			t.Fatalf("%s: coded is %v", synthKinds[kind].name, coded)
		}
		var tree *treeNode
		allocs := testing.AllocsPerRun(3, func() {
			rng.Seed(5)
			bootstrap(idx, rng)
			tree = buildTree(X, y, idx, 12, 4, mtryFor(6), rng, &sc, 0)
		})
		if nodes := countNodes(tree); nodes < 100 || allocs > 2*float64(nodes) {
			t.Fatalf("%s: %v allocations for a tree of %d nodes", synthKinds[kind].name, allocs, nodes)
		}
	}
}

// TestEncode pins which columns are coded: at most 256 distinct values,
// ±Inf among them, and no NaN, no -0 and no ragged row.
func TestEncode(t *testing.T) {
	const n = 600
	// card values, met in an order that is neither theirs nor its reverse.
	ramp := func(card int) func(i int) float64 {
		return func(i int) float64 { return float64(i * 97 % card) }
	}
	cols := []struct {
		name  string
		cell  func(i int) float64
		coded bool
	}{
		{"256 values", ramp(256), true},
		{"257 values", ramp(257), false},
		{"infinities", func(i int) float64 { return math.Inf(i%2*2 - 1) }, true},
		{"a NaN", func(i int) float64 {
			if i == n-1 {
				return math.NaN()
			}
			return 1
		}, false},
		{"-0 after +0", func(i int) float64 { return math.Copysign(0, float64(1-i%2*2)) }, false},
		{"-0 alone", func(int) float64 { return math.Copysign(0, -1) }, false},
	}
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, len(cols))
		for f, c := range cols {
			X[i][f] = c.cell(i)
		}
	}
	var sc splitScratch
	sc.encode(X)
	for f, c := range cols {
		col := sc.cols[f]
		if coded := col.codes != nil; coded != c.coded {
			t.Errorf("%s: coded is %v", c.name, coded)
			continue
		}
		for i := 0; c.coded && i < n; i++ {
			if got := col.vals[col.codes[i]]; got != X[i][f] {
				t.Fatalf("%s: row %d decodes to %v, want %v", c.name, i, got, X[i][f])
			}
		}
		if c.coded && !sort.Float64sAreSorted(col.vals) {
			t.Errorf("%s: table %v is not sorted", c.name, col.vals)
		}
	}
	for _, ragged := range [][]float64{{1}, {1, 2, 3, 4, 5, 6, 7}} {
		X[n/2] = ragged
		sc.encode(X)
		for f, col := range sc.cols {
			if col.codes != nil {
				t.Errorf("a row of %d among rows of %d: column %d is coded", len(ragged), len(cols), f)
			}
		}
	}
}

func TestSplitCandidatesMatchOracle(t *testing.T) {
	nan := math.NaN()
	skew := make([]float64, 0, 399)
	for i := 0; i < 390; i++ {
		skew = append(skew, 1)
	}
	for i := 0; i < 9; i++ {
		skew = append(skew, 8)
	}
	ramp := make([]float64, 500)
	for i := range ramp {
		ramp[i] = float64(i / 3)
	}
	cols := map[string][]float64{
		"empty":           nil,
		"one":             {3},
		"all equal":       {2, 2, 2, 2},
		"two values":      {1, 1, 5},
		"390 ones 9 8s":   skew,
		"> 32 distinct":   ramp,
		"NaNs then value": {nan, nan, 4, 4},
		"all NaN":         {nan, nan, nan},
		"signed zeros":    {math.Copysign(0, -1), 0, 0},
	}
	// Random sorted columns: i distinct values spread over 16·i rows by a
	// skewed draw, so quantile picks repeat and hit the extremes.
	rng := rand.New(rand.NewSource(9))
	for i := 2; i < 80; i += 3 {
		col := make([]float64, 16*i)
		for j := range col {
			col[j] = math.Floor(float64(i) * math.Pow(rng.Float64(), float64(1+i%4)))
		}
		for j := 0; j < i%5; j++ {
			col[j] = nan
		}
		sort.Float64s(col)
		cols[fmt.Sprintf("random %d", i)] = col
	}

	var sc splitScratch
	for name, col := range cols {
		got, want := sc.splitCandidates(col), splitCandidatesOracle(col)
		if len(got) != len(want) {
			t.Errorf("%s: %v, want %v", name, got, want)
			continue
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: candidate %d is %v, want %v", name, i, got[i], want[i])
			}
		}
	}
}

// fuzzMatrix decodes fuzz bytes: a header (rows, arity, seed, flags), then
// one byte per feature cell and two per target, reading zeros once the
// input runs out. Flag bits: 1 = the last column repeats the first,
// 2 = targets sit at 1e9, 4 = targets are scaled by 1e-7.
func fuzzMatrix(data []byte) (X [][]float64, y []float64, seed int64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n, arity := 4+int(next()%61), 1+int(next()%6)
	seed = int64(next())
	flags := next()
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		X[i] = make([]float64, arity)
		for f := range X[i] {
			switch b := next(); b {
			case 0xff:
				X[i][f] = math.NaN()
			case 0xfe:
				X[i][f] = math.Inf(1)
			case 0xfd:
				X[i][f] = math.Inf(-1)
			default:
				X[i][f] = float64(int8(b)) / 8
			}
		}
		if flags&1 != 0 {
			X[i][arity-1] = X[i][0]
		}
		y[i] = float64(int(next())<<8|int(next())) / 16
		if flags&2 != 0 {
			y[i] += 1e9
		}
		if flags&4 != 0 {
			y[i] *= 1e-7
		}
	}
	return X, y, seed
}

// FuzzBuildTreeDifferential: any tree buildTree grows differently from the
// exhaustive oracle is a crasher. The seeds are in testdata/fuzz.
func FuzzBuildTreeDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		X, y, seed := fuzzMatrix(data)
		if diff, _ := diffTrees(X, y, 6, 2, seed); diff != "" {
			t.Fatalf("%d rows × %d: %s", len(X), len(X[0]), diff)
		}
	})
}
