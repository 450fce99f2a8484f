package index

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// leaves returns the tree's leaves in chain order, from the leftmost.
func (t *BTree) leaves() []*leaf {
	n := t.root
	for level := t.height; level > 1; level-- {
		n = n.(*inner).children[0]
	}
	var out []*leaf
	for l := n.(*leaf); l != nil; l = l.next {
		out = append(out, l)
	}
	return out
}

// Min returns the smallest key, or (0,false) when empty. Leaves a delete
// emptied hold none.
func (t *BTree) Min() (int64, bool) {
	for _, l := range t.leaves() {
		if l.n > 0 {
			return l.keys[0], true
		}
	}
	return 0, false
}

// Max returns the largest key, or (0,false) when empty.
func (t *BTree) Max() (int64, bool) {
	ls := t.leaves()
	for i := len(ls) - 1; i >= 0; i-- {
		if l := ls[i]; l.n > 0 {
			return l.keys[l.n-1], true
		}
	}
	return 0, false
}

func TestBTreeInsertSearch(t *testing.T) {
	bt := NewBTree()
	if got := bt.Search(5); got != nil {
		t.Fatalf("empty tree search: %v", got)
	}
	for i := int64(0); i < 1000; i++ {
		bt.Insert(i, i*10)
	}
	if bt.Len() != 1000 {
		t.Fatalf("len: %d", bt.Len())
	}
	if bt.Height() < 2 {
		t.Fatalf("1000 keys must split: height %d", bt.Height())
	}
	for i := int64(0); i < 1000; i++ {
		got := bt.Search(i)
		if len(got) != 1 || got[0] != i*10 {
			t.Fatalf("search %d: %v", i, got)
		}
	}
	if bt.Search(5000) != nil {
		t.Fatalf("absent key")
	}
}

func TestBTreeDuplicates(t *testing.T) {
	bt := NewBTree()
	bt.Insert(7, 1)
	bt.Insert(7, 2)
	bt.Insert(7, 3)
	if got := bt.Search(7); len(got) != 3 {
		t.Fatalf("duplicates: %v", got)
	}
	if bt.Len() != 1 {
		t.Fatalf("distinct keys: %d", bt.Len())
	}
}

func TestBTreeRange(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 500; i += 2 { // even keys only
		bt.Insert(i, i)
	}
	var keys []int64
	bt.Range(100, 110, func(k int64, tids []int64) bool {
		keys = append(keys, k)
		return true
	})
	want := []int64{100, 102, 104, 106, 108, 110}
	if len(keys) != len(want) {
		t.Fatalf("range: %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("range order: %v", keys)
		}
	}
	// Early exit.
	n := 0
	bt.Range(0, 498, func(k int64, tids []int64) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early exit: %d", n)
	}
}

func TestBTreeMinMax(t *testing.T) {
	bt := NewBTree()
	if _, ok := bt.Min(); ok {
		t.Fatalf("empty min")
	}
	if _, ok := bt.Max(); ok {
		t.Fatalf("empty max")
	}
	vals := []int64{42, 7, 99, 13, 57}
	for _, v := range vals {
		bt.Insert(v, v)
	}
	if mn, _ := bt.Min(); mn != 7 {
		t.Fatalf("min: %d", mn)
	}
	if mx, _ := bt.Max(); mx != 99 {
		t.Fatalf("max: %d", mx)
	}
}

func TestBTreeRandomizedAgainstModel(t *testing.T) {
	checkModel(t, NewBTree(), rand.New(rand.NewSource(42)), 3000, 20000, nil)
}

// Property: a range scan returns exactly the inserted keys within bounds,
// in sorted order.
func TestBTreeRangeProperty(t *testing.T) {
	f := func(keysRaw []uint16, loRaw, hiRaw uint16) bool {
		lo, hi := int64(loRaw), int64(hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		bt := NewBTree()
		set := map[int64]bool{}
		for _, k := range keysRaw {
			bt.Insert(int64(k), 1)
			set[int64(k)] = true
		}
		var want []int64
		for k := range set {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []int64
		bt.Range(lo, hi, func(k int64, tids []int64) bool {
			got = append(got, k)
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		// A range whose ends cross is empty.
		empty := true
		bt.Range(hi+1, lo, func(int64, []int64) bool { empty = false; return false })
		return empty
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// postings is what both index structures are: TupleIDs under int64 keys.
type postings interface {
	Insert(key, tid int64)
	Delete(key, tid int64)
	Search(key int64) []int64
	Len() int
}

// checkModel drives random inserts, deletes and lookups on ix against a map
// of posting lists, over a key space small enough that keys gain more
// TupleIDs. A delete takes one of the key's TupleIDs, or one it does not
// hold, which must change nothing. Postings come back in insertion order,
// less what was deleted, which makes an index scan's output order a
// function of the history alone; Len counts the keys that have any. check,
// every 50 steps and at the end, looks at the rest.
func checkModel(t *testing.T, ix postings, rng *rand.Rand, keySpace, steps int, check func(step int, model map[int64][]int64)) {
	model := map[int64][]int64{}
	verify := func(step int) {
		if ix.Len() != len(model) {
			t.Fatalf("step %d: Len %d, model %d", step, ix.Len(), len(model))
		}
		if check != nil {
			check(step, model)
		}
	}
	for step := 0; step < steps; step++ {
		k := int64(rng.Intn(keySpace))
		switch r := rng.Intn(6); {
		case r < 3:
			ix.Insert(k, int64(step))
			model[k] = append(model[k], int64(step))
		case r == 3 && len(model[k]) > 0:
			j := rng.Intn(len(model[k]))
			ix.Delete(k, model[k][j])
			if model[k] = slices.Delete(slices.Clone(model[k]), j, j+1); len(model[k]) == 0 {
				delete(model, k)
			}
		case r == 3:
			ix.Delete(k, -1)
		}
		if got := ix.Search(k); !slices.Equal(got, model[k]) {
			t.Fatalf("step %d: Search(%d) %v, model %v", step, k, got, model[k])
		}
		if step%50 == 0 {
			verify(step)
		}
	}
	verify(-1)
}

// TestHashIndex holds the hash index to the model.
func TestHashIndex(t *testing.T) {
	for _, keySpace := range []int{8, 300} {
		checkModel(t, NewHash(), rand.New(rand.NewSource(int64(keySpace))), keySpace, 6000, nil)
	}
}

// TestBTreeModelWithDuplicates holds the B+Tree to the model, and its range
// scans, Min and Max to the model's sorted keys.
func TestBTreeModelWithDuplicates(t *testing.T) {
	for _, keySpace := range []int{40, 700, 20000} {
		rng := rand.New(rand.NewSource(int64(keySpace)))
		bt := NewBTree()
		checkModel(t, bt, rng, keySpace, 12000, func(step int, model map[int64][]int64) {
			keys := make([]int64, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			lo, hi := int64(rng.Intn(keySpace)), int64(rng.Intn(keySpace))
			if lo > hi {
				lo, hi = hi, lo
			}
			at := sort.Search(len(keys), func(i int) bool { return keys[i] >= lo })
			bt.Range(lo, hi, func(k int64, tids []int64) bool {
				if at >= len(keys) || keys[at] != k || !slices.Equal(tids, model[k]) {
					t.Fatalf("step %d: Range(%d, %d) gave (%d, %v), model has %v", step, lo, hi, k, tids, model[k])
				}
				at++
				return true
			})
			if at < len(keys) && keys[at] <= hi {
				t.Fatalf("step %d: Range(%d, %d) stopped before key %d", step, lo, hi, keys[at])
			}
			if k, ok := bt.Min(); ok != (len(keys) > 0) || (ok && k != keys[0]) {
				t.Fatalf("step %d: Min %d %v", step, k, ok)
			}
			if k, ok := bt.Max(); ok != (len(keys) > 0) || (ok && k != keys[len(keys)-1]) {
				t.Fatalf("step %d: Max %d %v", step, k, ok)
			}
		})
	}
}

// sliceTree is the B+Tree as it was before its nodes held fixed arrays:
// each node's keys, TupleIDs and children are slices that inserts grow and
// splits copy into fresh ones. It is the oracle of
// TestBTreeMatchesSliceTree and is not edited to make a change pass.
type sliceTree struct {
	root     *sliceNode
	height   int
	size     int
	postings map[int64][]int64
}

type sliceNode struct {
	leaf     bool
	keys     []int64
	children []*sliceNode // internal nodes
	tids     []int64      // leaf nodes: each key's first TupleID
	next     *sliceNode   // leaf chain for range scans
}

func newSliceTree() *sliceTree {
	return &sliceTree{root: &sliceNode{leaf: true}, height: 1}
}

func (t *sliceTree) Len() int    { return t.size }
func (t *sliceTree) Height() int { return t.height }

func (t *sliceTree) Insert(key int64, tid int64) {
	midKey, right := t.insert(t.root, key, tid)
	if right != nil {
		t.root = &sliceNode{keys: []int64{midKey}, children: []*sliceNode{t.root, right}}
		t.height++
	}
}

func (t *sliceTree) insert(n *sliceNode, key int64, tid int64) (int64, *sliceNode) {
	if n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		if i < len(n.keys) && n.keys[i] == key {
			if t.postings == nil {
				t.postings = make(map[int64][]int64)
			}
			t.postings[key] = append(t.tidsAt(n, i), tid)
			return 0, nil
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.tids = append(n.tids, 0)
		copy(n.tids[i+1:], n.tids[i:])
		n.tids[i] = tid
		t.size++
		if len(n.keys) <= btreeOrder {
			return 0, nil
		}
		return t.splitLeaf(n)
	}
	i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
	midKey, right := t.insert(n.children[i], key, tid)
	if right == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = midKey
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.keys) <= btreeOrder {
		return 0, nil
	}
	return t.splitInternal(n)
}

func (t *sliceTree) splitLeaf(n *sliceNode) (int64, *sliceNode) {
	mid := len(n.keys) / 2
	right := &sliceNode{
		leaf: true,
		keys: append([]int64(nil), n.keys[mid:]...),
		tids: append([]int64(nil), n.tids[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid]
	n.tids = n.tids[:mid]
	n.next = right
	return right.keys[0], right
}

func (t *sliceTree) splitInternal(n *sliceNode) (int64, *sliceNode) {
	mid := len(n.keys) / 2
	midKey := n.keys[mid]
	right := &sliceNode{
		keys:     append([]int64(nil), n.keys[mid+1:]...),
		children: append([]*sliceNode(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return midKey, right
}

func (t *sliceTree) findLeaf(key int64) *sliceNode {
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
		n = n.children[i]
	}
	return n
}

func (t *sliceTree) tidsAt(n *sliceNode, i int) []int64 {
	if len(t.postings) != 0 {
		if p, ok := t.postings[n.keys[i]]; ok {
			return p
		}
	}
	return n.tids[i : i+1 : i+1]
}

func (t *sliceTree) Search(key int64) []int64 {
	n := t.findLeaf(key)
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if i < len(n.keys) && n.keys[i] == key {
		return t.tidsAt(n, i)
	}
	return nil
}

func (t *sliceTree) Range(lo, hi int64, fn func(key int64, tids []int64) bool) {
	n := t.findLeaf(lo)
	for n != nil {
		for i, k := range n.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return
			}
			if !fn(k, t.tidsAt(n, i)) {
				return
			}
		}
		n = n.next
	}
}

// rangeOf returns what Range(lo, hi) hands its callback, in order, with
// each key's TupleIDs copied.
func rangeOf(r func(lo, hi int64, fn func(key int64, tids []int64) bool), lo, hi int64) (keys []int64, tids [][]int64) {
	r(lo, hi, func(k int64, ts []int64) bool {
		keys = append(keys, k)
		tids = append(tids, slices.Clone(ts))
		return true
	})
	return keys, tids
}

// TestBTreeMatchesSliceTree drives the B+Tree and the slice-based oracle
// with the same inserts, seeded random keys over key spaces small enough to
// repeat keys and large enough not to, and ascending and descending runs
// long enough for three levels, and compares Len, Height, Search of the
// inserted key and of a random one, and a Range over a random window after
// every insert, and a Range over all keys and the two trees' shapes every
// 500 inserts and at the end. Height feeds the cost of an index probe in
// virtual time, so a tree whose nodes split anywhere but the middle fails
// here.
func TestBTreeMatchesSliceTree(t *testing.T) {
	const n = 6000
	cases := []struct {
		name string
		key  func(rng *rand.Rand, i int) int64
	}{
		{"random/dups", func(rng *rand.Rand, _ int) int64 { return rng.Int63n(1500) }},
		{"random/wide", func(rng *rand.Rand, _ int) int64 { return rng.Int63n(1 << 40) }},
		{"ascending", func(_ *rand.Rand, i int) int64 { return int64(i) }},
		{"ascending/dups", func(_ *rand.Rand, i int) int64 { return int64(i / 3) }},
		{"descending", func(_ *rand.Rand, i int) int64 { return int64(n - i) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(c.name))))
			got, want := NewBTree(), newSliceTree()
			compareRange := func(i int, lo, hi int64) {
				gk, gt := rangeOf(got.Range, lo, hi)
				wk, wt := rangeOf(want.Range, lo, hi)
				if !slices.Equal(gk, wk) || !slices.EqualFunc(gt, wt, slices.Equal) {
					t.Fatalf("insert %d: Range(%d, %d) gave %v %v, oracle %v %v", i, lo, hi, gk, gt, wk, wt)
				}
			}
			for i := 0; i < n; i++ {
				k := c.key(rng, i)
				got.Insert(k, int64(i))
				want.Insert(k, int64(i))
				if got.Len() != want.Len() || got.Height() != want.Height() {
					t.Fatalf("insert %d (key %d): Len %d Height %d, oracle Len %d Height %d",
						i, k, got.Len(), got.Height(), want.Len(), want.Height())
				}
				for _, q := range []int64{k, c.key(rng, i)} {
					if g, w := got.Search(q), want.Search(q); !slices.Equal(g, w) {
						t.Fatalf("insert %d: Search(%d) %v, oracle %v", i, q, g, w)
					}
				}
				lo := c.key(rng, i)
				compareRange(i, lo, lo+int64(rng.Intn(200)))
				if i%500 == 0 {
					compareRange(i, math.MinInt64, math.MaxInt64)
					compareShape(t, i, got, want)
				}
			}
			compareRange(n, math.MinInt64, math.MaxInt64)
			compareShape(t, n, got, want)
		})
	}
}

// compareShape fails unless both trees have nodes of the same key counts,
// level by level from the root, left to right: the same splits at the same
// points. Height alone sees a misplaced inner split only at four levels.
func compareShape(t *testing.T, i int, got *BTree, want *sliceTree) {
	t.Helper()
	var g, w []int
	level := []any{got.root}
	for h := got.height; h > 0; h-- {
		var below []any
		for _, n := range level {
			if h == 1 {
				g = append(g, n.(*leaf).n)
				continue
			}
			in := n.(*inner)
			g = append(g, in.n)
			below = append(below, in.children[:in.n+1]...)
		}
		g = append(g, -1)
		level = below
	}
	for level := []*sliceNode{want.root}; len(level) > 0; {
		var below []*sliceNode
		for _, n := range level {
			w = append(w, len(n.keys))
			below = append(below, n.children...)
		}
		w = append(w, -1)
		level = below
	}
	if !slices.Equal(g, w) {
		t.Fatalf("insert %d: node key counts by level %v, oracle %v", i, g, w)
	}
}

// TestBTreeInsertAllocations: an insert of a new key that splits no node
// allocates nothing, and one that does allocates one object for each node
// it adds (the new right siblings, and a new root), over ascending and
// random keys.
func TestBTreeInsertAllocations(t *testing.T) {
	var nodes func(n any, level int) int
	nodes = func(n any, level int) int {
		if level == 1 {
			return 1
		}
		in := n.(*inner)
		c := 1
		for _, child := range in.children[:in.n+1] {
			c += nodes(child, level-1)
		}
		return c
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // as testing.AllocsPerRun does
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection cycle allocates
	for _, ascending := range []bool{true, false} {
		bt := NewBTree()
		rng := rand.New(rand.NewSource(7))
		seen := map[int64]bool{}
		splits := 0
		for i := 0; i < 5000; i++ {
			k := int64(i)
			if !ascending {
				for k = rng.Int63(); seen[k]; k = rng.Int63() {
				}
				seen[k] = true
			}
			before := nodes(bt.root, bt.height)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			bt.Insert(k, k)
			runtime.ReadMemStats(&m1)
			added := nodes(bt.root, bt.height) - before
			if allocs := m1.Mallocs - m0.Mallocs; allocs != uint64(added) {
				t.Fatalf("ascending=%v insert %d: %d allocations for %d new nodes", ascending, i, allocs, added)
			}
			if added > 0 {
				splits++
			}
		}
		if bt.Height() < 3 || splits < 50 {
			t.Fatalf("ascending=%v: height %d after %d splitting inserts: too few splits to tell", ascending, bt.Height(), splits)
		}
	}
}

// TestBTreeDeleteEmptiesLeaves deletes every key of an ascending load from
// the front, as Delivery deletes new orders: each leaf it empties stays on
// the chain, Len counts only what is left, Range skips the empty leaves, and
// inserts refill them.
func TestBTreeDeleteEmptiesLeaves(t *testing.T) {
	bt := NewBTree()
	const n = 1000
	for k := int64(0); k < n; k++ {
		bt.Insert(k, k)
	}
	bt.Insert(500, -500)
	height, leaves := bt.Height(), len(bt.leaves())
	for k := int64(0); k < n-10; k++ {
		// A TupleID the key does not hold changes nothing; 500 keeps -500.
		bt.Delete(k, k+1)
		if want := n - int(k) + int(k/501); bt.Len() != want {
			t.Fatalf("Delete(%d) of a TupleID it lacks: Len %d", k, bt.Len())
		}
		bt.Delete(k, k)
	}
	if bt.Len() != 11 || bt.Height() != height || len(bt.leaves()) != leaves {
		t.Fatalf("Len %d, height %d, %d leaves; want 11, %d, %d", bt.Len(), bt.Height(), len(bt.leaves()), height, leaves)
	}
	if got := bt.Search(500); !slices.Equal(got, []int64{-500}) {
		t.Fatalf("Search(500) %v after its first TupleID left", got)
	}
	bt.Delete(500, -500)
	var keys []int64
	bt.Range(math.MinInt64, math.MaxInt64, func(k int64, _ []int64) bool { keys = append(keys, k); return true })
	if want := []int64{990, 991, 992, 993, 994, 995, 996, 997, 998, 999}; !slices.Equal(keys, want) {
		t.Fatalf("Range over the emptied leaves: %v", keys)
	}
	for k := int64(0); k < n; k += 7 {
		bt.Insert(k, k)
	}
	if got, ok := bt.Min(); !ok || got != 0 || bt.Search(994)[0] != 994 || bt.Len() != 10+143-1 {
		t.Fatalf("refill: Min %d %v, Len %d", got, ok, bt.Len())
	}
}

// FuzzBTreeOps holds Insert, Delete, Search, Range and Len to a sorted slice
// of keys and their posting lists. Each op is three bytes: an operation, a
// key out of about 256 (enough for three levels), and an argument: the
// posting to delete (or one that is not there), or a Range's width. After
// every op the probed key's postings and Len must match, and at the end a
// Range over every key.
func FuzzBTreeOps(f *testing.F) {
	// Ascending inserts, duplicates on every tenth key, then every key
	// deleted from the front and a few inserted again: emptied leaves.
	var seed []byte
	for k := 0; k < 256; k++ {
		seed = append(seed, 0, byte(k), 0)
		if k%10 == 0 {
			seed = append(seed, 1, byte(k), 0)
		}
	}
	for k := 0; k < 256; k++ {
		seed = append(seed, 2, byte(k), 0, 2, byte(k), 1)
	}
	seed = append(seed, 0, 5, 0, 3, 0, 255, 0, 200, 0)
	f.Add(seed)
	f.Add([]byte{0, 7, 0, 1, 7, 0, 1, 7, 0, 2, 7, 1, 3, 0, 10, 2, 7, 0, 2, 7, 0, 3, 7, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type entry struct {
			key  int64
			tids []int64
		}
		var model []entry // sorted by key
		find := func(k int64) (int, bool) {
			return slices.BinarySearchFunc(model, k, func(e entry, k int64) int { return cmp.Compare(e.key, k) })
		}
		bt := NewBTree()
		for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
			k, arg := int64(ops[1])*3, int(ops[2])
			i, found := find(k)
			switch ops[0] % 4 {
			case 0, 1:
				bt.Insert(k, int64(step))
				if !found {
					model = slices.Insert(model, i, entry{key: k})
				}
				model[i].tids = append(model[i].tids, int64(step))
			case 2:
				tid := int64(-1)
				if found {
					if j := arg % (len(model[i].tids) + 1); j < len(model[i].tids) {
						tid = model[i].tids[j]
						if model[i].tids = slices.Delete(model[i].tids, j, j+1); len(model[i].tids) == 0 {
							model = slices.Delete(model, i, i+1)
						}
					}
				}
				bt.Delete(k, tid)
			case 3:
				hi := k + int64(arg)*3
				var got []entry
				bt.Range(k, hi, func(k int64, tids []int64) bool {
					got = append(got, entry{k, slices.Clone(tids)})
					return true
				})
				j, _ := find(hi + 1)
				if want := model[i:j]; !slices.EqualFunc(got, want, func(a, b entry) bool {
					return a.key == b.key && slices.Equal(a.tids, b.tids)
				}) {
					t.Fatalf("step %d: Range(%d, %d) %v, model %v", step, k, hi, got, want)
				}
			}
			var want []int64
			if i, found := find(k); found {
				want = model[i].tids
			}
			if got := bt.Search(k); !slices.Equal(got, want) || bt.Len() != len(model) {
				t.Fatalf("step %d: Search(%d) %v, Len %d; model %v, %d keys", step, k, got, bt.Len(), want, len(model))
			}
		}
		var keys []int64
		bt.Range(math.MinInt64, math.MaxInt64, func(k int64, tids []int64) bool {
			if i, found := find(k); !found || !slices.Equal(tids, model[i].tids) {
				t.Fatalf("Range gave (%d, %v), which the model lacks", k, tids)
			}
			keys = append(keys, k)
			return true
		})
		if len(keys) != len(model) {
			t.Fatalf("Range over every key gave %d keys, model %d", len(keys), len(model))
		}
	})
}
