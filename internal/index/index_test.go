package index

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

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
	if !bt.Delete(7, 2) {
		t.Fatalf("delete present")
	}
	if got := bt.Search(7); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("after delete: %v", got)
	}
	if bt.Delete(7, 99) || bt.Delete(100, 1) {
		t.Fatalf("delete absent must be false")
	}
	bt.Delete(7, 1)
	bt.Delete(7, 3)
	if bt.Search(7) != nil || bt.Len() != 0 {
		t.Fatalf("key must vanish when postings empty")
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
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// postings is what both index structures are: TupleIDs under int64 keys.
type postings interface {
	Insert(key, tid int64)
	Delete(key, tid int64) bool
	Search(key int64) []int64
	Len() int
}

// checkModel drives random inserts, deletes and lookups on ix against a map
// of posting lists, over a key space small enough that keys gain a second
// TupleID, lose their first, fall back to one, vanish and return. Postings
// come back in insertion order, which makes an index scan's output order a
// function of the history alone; Len counts the keys that have any;
// deleting what is absent finds nothing. check, every 50 steps and at the
// end, looks at the rest.
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
		switch vals := model[k]; {
		case rng.Intn(5) < 3:
			ix.Insert(k, int64(step))
			model[k] = append(vals, int64(step))
		case len(vals) > 0:
			j := rng.Intn(len(vals))
			if !ix.Delete(k, vals[j]) {
				t.Fatalf("step %d: Delete(%d, %d) found nothing", step, k, vals[j])
			}
			if model[k] = slices.Delete(vals, j, j+1); len(model[k]) == 0 {
				delete(model, k)
			}
		default:
			if ix.Delete(k, int64(step)) {
				t.Fatalf("step %d: Delete of absent key %d succeeded", step, k)
			}
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
