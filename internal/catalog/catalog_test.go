package catalog

import (
	"hash/fnv"
	"testing"

	"tscout/internal/storage"
)

func testCatalog(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c := New()
	tbl, err := c.CreateTable("orders", storage.MustSchema(
		storage.Column{Name: "w_id", Kind: storage.KindInt},
		storage.Column{Name: "d_id", Kind: storage.KindInt},
		storage.Column{Name: "o_id", Kind: storage.KindInt},
		storage.Column{Name: "note", Kind: storage.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	return c, tbl
}

func TestCatalogTables(t *testing.T) {
	c, _ := testCatalog(t)
	if _, err := c.CreateTable("orders", nil); err == nil {
		t.Fatalf("duplicate table must fail")
	}
	if _, err := c.Table("nope"); err == nil {
		t.Fatalf("unknown table must fail")
	}
	if names := c.TableNames(); len(names) != 1 || names[0] != "orders" {
		t.Fatalf("names: %v", names)
	}
}

func TestBTreeIndexCompositeKeys(t *testing.T) {
	c, tbl := testCatalog(t)
	ix, err := c.CreateBTreeIndex("orders_pk", "orders",
		[]string{"w_id", "d_id", "o_id"}, []uint{8, 8, 32}, true)
	if err != nil {
		t.Fatal(err)
	}
	rowA := storage.Row{storage.NewInt(1), storage.NewInt(2), storage.NewInt(3), storage.NewString("")}
	rowB := storage.Row{storage.NewInt(1), storage.NewInt(2), storage.NewInt(4), storage.NewString("")}
	kA, kB := ix.KeyFor(rowA), ix.KeyFor(rowB)
	if kA >= kB {
		t.Fatalf("composite packing must preserve order: %d vs %d", kA, kB)
	}
	if got := ix.KeyForValues([]storage.Value{
		storage.NewInt(1), storage.NewInt(2), storage.NewInt(3),
	}); got != kA {
		t.Fatalf("KeyForValues mismatch: %d vs %d", got, kA)
	}
	ix.Insert(kA, 100)
	ix.Insert(kB, 200)
	if got := ix.Search(kA); len(got) != 1 || got[0] != 100 {
		t.Fatalf("search: %v", got)
	}
	if tbl.IndexOn([]int{0, 1, 2}) != ix {
		t.Fatalf("IndexOn exact match")
	}
	if tbl.IndexOn([]int{0, 1}) != ix {
		t.Fatalf("IndexOn prefix match")
	}
	if tbl.IndexOn([]int{1}) != nil {
		t.Fatalf("IndexOn non-prefix must miss")
	}
	if ix.Len() != 2 || ix.Height() < 1 {
		t.Fatalf("metadata")
	}
	if !ix.Delete(kA, 100) || ix.Delete(kA, 100) {
		t.Fatalf("delete")
	}
}

func TestPrefixRange(t *testing.T) {
	c, _ := testCatalog(t)
	ix, _ := c.CreateBTreeIndex("orders_pk", "orders",
		[]string{"w_id", "d_id", "o_id"}, []uint{8, 8, 32}, true)
	for o := int64(1); o <= 10; o++ {
		key := ix.KeyForValues([]storage.Value{storage.NewInt(1), storage.NewInt(2), storage.NewInt(o)})
		ix.Insert(key, storage.TupleID(o))
	}
	// A different district must not appear in the range.
	other := ix.KeyForValues([]storage.Value{storage.NewInt(1), storage.NewInt(3), storage.NewInt(1)})
	ix.Insert(other, storage.TupleID(99))

	lo, hi := ix.PrefixRange([]storage.Value{storage.NewInt(1), storage.NewInt(2)})
	var got []int64
	ix.RangeSearch(lo, hi, func(k int64, tids []int64) bool {
		got = append(got, tids...)
		return true
	})
	if len(got) != 10 {
		t.Fatalf("prefix range: %v", got)
	}
	for i, tid := range got {
		if tid != int64(i+1) {
			t.Fatalf("order ids in order: %v", got)
		}
	}
}

func TestHashIndexStringsAndValidation(t *testing.T) {
	c, _ := testCatalog(t)
	ix, err := c.CreateHashIndex("orders_note", "orders", []string{"note"}, false)
	if err != nil {
		t.Fatal(err)
	}
	row1 := storage.Row{storage.NewInt(1), storage.NewInt(1), storage.NewInt(1), storage.NewString("abc")}
	row2 := storage.Row{storage.NewInt(1), storage.NewInt(1), storage.NewInt(2), storage.NewString("abc")}
	k1, k2 := ix.KeyFor(row1), ix.KeyFor(row2)
	if k1 != k2 {
		t.Fatalf("same string must hash to same key")
	}
	if k1 < 0 {
		t.Fatalf("hash keys must be non-negative")
	}
	ix.Insert(k1, 1)
	ix.Insert(k2, 2)
	if got := ix.Search(k1); len(got) != 2 {
		t.Fatalf("postings: %v", got)
	}
	if ix.Height() != 1 {
		t.Fatalf("hash height")
	}

	if _, err := c.CreateHashIndex("bad", "orders", []string{"zzz"}, false); err == nil {
		t.Fatalf("unknown column must fail")
	}
	if _, err := c.CreateBTreeIndex("bad2", "orders", []string{"w_id"}, []uint{8, 8}, false); err == nil {
		t.Fatalf("bits arity must fail")
	}
	if _, err := c.CreateHashIndex("bad3", "nope", []string{"x"}, false); err == nil {
		t.Fatalf("unknown table must fail")
	}
}

// oldKeyFor is the key function as it was before keys were packed and
// hashed directly from values: hash/fnv over each column's rendered text.
func oldKeyFor(ix *Index, row storage.Row) int64 {
	if ix.Kind == HashKind {
		h := fnv.New64a()
		for _, c := range ix.KeyCols {
			_, _ = h.Write([]byte(row[c].String()))
			_, _ = h.Write([]byte{0})
		}
		return int64(h.Sum64() & 0x7fffffffffffffff)
	}
	var key int64
	for i, c := range ix.KeyCols {
		b := ix.Bits[i]
		v := row[c].AsInt()
		mask := int64(1)<<b - 1
		key = key<<b | (v & mask)
	}
	return key
}

// oldKeyForValues and oldPrefixRange built a scratch row, a temporary Index
// and an identity column list per probe to reuse oldKeyFor.
func oldKeyForValues(ix *Index, vals []storage.Value) int64 {
	row := make(storage.Row, len(ix.KeyCols))
	cols := make([]int, len(vals))
	for i := range cols {
		cols[i] = i
	}
	copy(row, vals)
	return oldKeyFor(&Index{Kind: ix.Kind, KeyCols: cols, Bits: ix.Bits}, row)
}

func oldPrefixRange(ix *Index, vals []storage.Value) (lo, hi int64) {
	prefix := oldKeyForValues(ix, vals)
	var rest uint
	for _, b := range ix.Bits[len(vals):] {
		rest += b
	}
	lo = prefix << rest
	return lo, lo | (int64(1)<<rest - 1)
}

func TestKeyFunctionsMatchOldImplementation(t *testing.T) {
	iv, sv, fv := storage.NewInt, storage.NewString, storage.NewFloat
	btree := func(bits ...uint) *Index {
		ix := &Index{Kind: BTreeKind, Bits: bits}
		for i := range bits {
			ix.KeyCols = append(ix.KeyCols, i)
		}
		return ix
	}
	hash := func(n int) *Index {
		ix := &Index{Kind: HashKind}
		for i := 0; i < n; i++ {
			ix.KeyCols = append(ix.KeyCols, i)
		}
		return ix
	}
	for _, c := range []struct {
		name string
		ix   *Index
		vals []storage.Value
	}{
		{"btree 1 col", btree(24), []storage.Value{iv(7)}},
		{"btree 2 cols", btree(24, 24), []storage.Value{iv(3), iv(1 << 20)}},
		{"btree 3 cols", btree(16, 16, 16), []storage.Value{iv(1), iv(2), iv(3)}},
		{"btree wider than its bits", btree(8, 8), []storage.Value{iv(0x1ff), iv(0x12345)}},
		{"btree negative", btree(16, 16), []storage.Value{iv(-1), iv(-40000)}},
		{"btree float and null", btree(12, 12), []storage.Value{fv(9.9), storage.Null()}},
		{"hash int", hash(1), []storage.Value{iv(123456789)}},
		{"hash negative int", hash(1), []storage.Value{iv(-42)}},
		{"hash string", hash(1), []storage.Value{sv("BARBARBAR")}},
		{"hash empty string", hash(1), []storage.Value{sv("")}},
		{"hash float", hash(1), []storage.Value{fv(0.1)}},
		{"hash null", hash(1), []storage.Value{storage.Null()}},
		{"hash mixed", hash(3), []storage.Value{iv(4), sv(""), sv("x\x00y")}},
	} {
		if got, want := c.ix.KeyForValues(c.vals), oldKeyForValues(c.ix, c.vals); got != want {
			t.Errorf("%s: KeyForValues %#x, old %#x", c.name, got, want)
		}
		if got, want := c.ix.KeyFor(storage.Row(c.vals)), oldKeyFor(c.ix, storage.Row(c.vals)); got != want {
			t.Errorf("%s: KeyFor %#x, old %#x", c.name, got, want)
		}
		if c.ix.Kind != BTreeKind {
			continue
		}
		for n := 1; n <= len(c.vals); n++ {
			lo, hi := c.ix.PrefixRange(c.vals[:n])
			wantLo, wantHi := oldPrefixRange(c.ix, c.vals[:n])
			if lo != wantLo || hi != wantHi {
				t.Errorf("%s: PrefixRange(%d) [%#x, %#x], old [%#x, %#x]", c.name, n, lo, hi, wantLo, wantHi)
			}
		}
	}
	ix := btree(16, 16)
	vals := []storage.Value{iv(5), iv(6)}
	if n := testing.AllocsPerRun(100, func() { ix.KeyForValues(vals); ix.PrefixRange(vals[:1]) }); n != 0 {
		t.Errorf("B+Tree key packing allocates %v times per probe", n)
	}
	hix := hash(2)
	hvals := []storage.Value{iv(123456), sv("name")}
	if n := testing.AllocsPerRun(100, func() { hix.KeyForValues(hvals) }); n != 0 {
		t.Errorf("hash key allocates %v times per probe", n)
	}
}

func TestVersionCountsMutations(t *testing.T) {
	c, _ := testCatalog(t)
	v := c.Version()
	step := func(what string) {
		t.Helper()
		if got := c.Version(); got == v {
			t.Fatalf("%s did not change the version", what)
		} else {
			v = got
		}
	}
	if _, err := c.CreateBTreeIndex("o1", "orders", []string{"w_id"}, []uint{24}, false); err != nil {
		t.Fatal(err)
	}
	step("CreateBTreeIndex")
	if _, err := c.CreateHashIndex("o2", "orders", []string{"note"}, false); err != nil {
		t.Fatal(err)
	}
	step("CreateHashIndex")
	if _, err := c.CreateTable("t2", storage.MustSchema(storage.Column{Name: "a", Kind: storage.KindInt})); err != nil {
		t.Fatal(err)
	}
	step("CreateTable")
	if _, err := c.MountVirtual("v", nil); err != nil {
		t.Fatal(err)
	}
	step("MountVirtual")
	if _, err := c.CreateTable("t2", nil); err == nil {
		t.Fatal("duplicate table must fail")
	}
	if _, err := c.Table("t2"); err != nil || c.Version() != v {
		t.Fatalf("a failed mutation or a lookup changed the version")
	}
}
