package model

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
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

// diffTrees grows one tree each way from the same seed — bootstrap, then
// the split search, on one rng stream as Forest.Train does — and returns
// sameTree's verdict and the tree's size.
func diffTrees(X [][]float64, y []float64, depth, minSamples int, seed int64) (diff string, nodes int) {
	mtry := mtryFor(len(X[0]))
	sample := func() ([]int, *rand.Rand) {
		rng := rand.New(rand.NewSource(seed))
		idx := make([]int, len(X))
		bootstrap(idx, rng)
		return idx, rng
	}
	idx, rng := sample()
	got := buildTree(X, y, idx, depth, minSamples, mtry, rng, newSplitScratch(len(X)))
	idx, rng = sample()
	want := buildTreeOracle(X, y, idx, depth, minSamples, mtry, rng)
	return sameTree(got, want, "root"), countNodes(want)
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
// trees": 9 draws of each family, n from 4 to 3000, arity 1 to 8.
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
	if cases < 60 {
		t.Fatalf("only %d cases", cases)
	}
}

// TestBuildTreeMatchesOracleOnTPCC repeats the comparison on what the
// trainers really see: every (OU, arity) group of a small instrumented
// TPC-C run, read back through FromArchive, four trees each.
func TestBuildTreeMatchesOracleOnTPCC(t *testing.T) {
	var buf bytes.Buffer
	w := archive.NewWriter(&buf)
	srv, err := dbms.NewServer(dbms.Config{
		Seed: 77, NoiseSigma: 0.03, Instrument: true, Sink: w,
		WAL: wal.Config{GroupSize: 8, FlushIntervalNS: 100_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := &workload.TPCC{Warehouses: 1, CustomersPerDistrict: 10, Items: 100, InitialOrdersPerDistrict: 10}
	if err := gen.Setup(srv); err != nil {
		t.Fatal(err)
	}
	srv.TS.Sampler().SetAllRates(100)
	if _, err := workload.Run(srv, gen, workload.Config{Terminals: 4, Transactions: 150, Seed: 77}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	points, err := FromArchive(r, []float64{2.1})
	if err != nil {
		t.Fatal(err)
	}

	byOU := make(map[ouKey][]Point)
	for _, p := range points {
		byOU[keyOf(p)] = append(byOU[keyOf(p)], p)
	}
	keys := make([]ouKey, 0, len(byOU))
	for k := range byOU {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].ou < keys[j].ou || (keys[i].ou == keys[j].ou && keys[i].arity < keys[j].arity)
	})
	splits := 0
	for _, k := range keys {
		pts := byOU[k]
		X := make([][]float64, len(pts))
		y := make([]float64, len(pts))
		for i, p := range pts {
			X[i], y[i] = p.Features, p.TargetUS
		}
		for seed := int64(0); seed < 4; seed++ {
			diff, nodes := diffTrees(X, y, 10, 4, seed)
			if diff != "" {
				t.Errorf("OU %d arity %d (%d rows) seed %d: %s", k.ou, k.arity, len(pts), seed, diff)
			}
			splits += nodes / 2
		}
	}
	if len(points) < 2000 || splits < 200 {
		t.Fatalf("%d points and %d splits compared: the run is too small to mean anything", len(points), splits)
	}
}

// TestBuildTreeAllocations holds buildTree to a constant number of
// allocations per returned node (the node, and rng.Perm at each split),
// whatever the number of candidates it scored.
func TestBuildTreeAllocations(t *testing.T) {
	X, y := synthKinds[1].gen(rand.New(rand.NewSource(5)), 2000, 6)
	rng := rand.New(rand.NewSource(5))
	idx := make([]int, len(X))
	sc := newSplitScratch(len(X))
	var tree *treeNode
	allocs := testing.AllocsPerRun(3, func() {
		rng.Seed(5)
		bootstrap(idx, rng)
		tree = buildTree(X, y, idx, 12, 4, mtryFor(6), rng, sc)
	})
	if nodes := countNodes(tree); nodes < 100 || allocs > 2*float64(nodes) {
		t.Fatalf("%v allocations for a tree of %d nodes", allocs, nodes)
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
