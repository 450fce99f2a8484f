// Package catalog maintains the DBMS's table and index metadata and the
// mapping from names to storage and index objects. Composite index keys
// are packed into int64s using declared per-column bit widths (ordered
// B+Tree keys) or FNV hashing (hash-index keys). An ordered key clamps each
// cell into its column's bits, so packed keys sort as the values do (NULL,
// which sorts first, packs as 0): a range of keys covers every row whose
// values lie between its ends, and an out-of-range value shares the end
// key of its column with the values clamped beside it.
package catalog

import (
	"fmt"
	"sort"

	"tscout/internal/index"
	"tscout/internal/storage"
)

// IndexKind selects the index structure.
type IndexKind int

// Index kinds.
const (
	// BTreeKind is an ordered index supporting range scans.
	BTreeKind IndexKind = iota
	// HashKind is a point-lookup index (secondary indirection).
	HashKind
)

// Index is one index's metadata plus its structure.
type Index struct {
	Name   string
	Kind   IndexKind
	Unique bool
	// KeyCols are schema column positions forming the key, major first.
	KeyCols []int
	// Bits are per-column bit widths for ordered key packing (BTreeKind).
	Bits []uint

	BTree *index.BTree
	Hash  *index.Hash
}

// KeyFor computes the packed key for a row.
func (ix *Index) KeyFor(row storage.Row) int64 {
	if ix.Kind == HashKind {
		h := uint64(fnvOffset64)
		for _, c := range ix.KeyCols {
			h = hashValue(h, &row[c])
		}
		return int64(h & 0x7fffffffffffffff)
	}
	var key int64
	for i, c := range ix.KeyCols {
		b := ix.Bits[i]
		key = key<<b | clampCell(row[c].AsInt(), b)
	}
	return key
}

// KeyForValues packs loose key-column values (major first) — the planner
// uses it when predicates, not rows, supply the key. Fewer values than key
// columns pack the leading prefix.
func (ix *Index) KeyForValues(vals []storage.Value) int64 {
	if ix.Kind == HashKind {
		h := uint64(fnvOffset64)
		for i := range vals {
			h = hashValue(h, &vals[i])
		}
		return int64(h & 0x7fffffffffffffff)
	}
	var key int64
	for i := range vals {
		b := ix.Bits[i]
		key = key<<b | clampCell(vals[i].AsInt(), b)
	}
	return key
}

// clampCell is an ordered key column's bits for the value x: x clamped
// into [0, 2^bits−1]. Masking instead would file −1 under the column's
// largest key and 2^bits under 0, out of the values' order.
func clampCell(x int64, bits uint) int64 {
	return min(max(x, 0), int64(1)<<bits-1)
}

// FNV-64a, written out so a key hashes without the hash.Hash64 object and
// the per-column byte-slice conversions.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashValue folds v's rendered text (Value.String) and a 0 separator into
// the running FNV-64a state h.
func hashValue(h uint64, v *storage.Value) uint64 {
	if v.Kind() != storage.KindString {
		return hashRendered(h, v)
	}
	s := v.Str()
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h * fnvPrime64 // the 0 separator: h ^ 0 is h
}

// hashRendered is hashValue for the kinds whose text must be formatted.
func hashRendered(h uint64, v *storage.Value) uint64 {
	var buf [32]byte
	for _, b := range v.AppendText(buf[:0]) {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h * fnvPrime64
}

// PrefixRange returns the packed-key range [lo, hi] covering every key
// whose leading columns equal vals and, when a column follows them, whose
// next cell holds a value in [from, to] (BTree indexes only).
// math.MinInt64 and math.MaxInt64 leave a side open, and from > to gives
// lo > hi, a range with no key. The bounds clamp as cells do, so the range
// holds every key whose cell lies between them, NULL (packed as 0)
// wherever 0 is in range.
func (ix *Index) PrefixRange(vals []storage.Value, from, to int64) (lo, hi int64) {
	var rest uint
	for _, b := range ix.Bits[len(vals):] {
		rest += b
	}
	base := ix.KeyForValues(vals) << rest
	if len(vals) == len(ix.Bits) {
		return base, base
	}
	if from > to {
		return base + 1, base
	}
	b := ix.Bits[len(vals)]
	below := rest - b
	return base | clampCell(from, b)<<below, base | clampCell(to, b)<<below | (int64(1)<<below - 1)
}

// RangeSearch visits all (key, tids) in [lo, hi] on a BTree index.
func (ix *Index) RangeSearch(lo, hi int64, fn func(key int64, tids []int64) bool) {
	if ix.BTree != nil {
		ix.BTree.Range(lo, hi, fn)
	}
}

// Search returns the TupleIDs under a packed key.
func (ix *Index) Search(key int64) []int64 {
	if ix.Kind == HashKind {
		return ix.Hash.Search(key)
	}
	return ix.BTree.Search(key)
}

// Insert adds (key, tid).
func (ix *Index) Insert(key int64, tid storage.TupleID) {
	if ix.Kind == HashKind {
		ix.Hash.Insert(key, int64(tid))
		return
	}
	ix.BTree.Insert(key, int64(tid))
}

// Delete removes (key, tid), and key once it has no TupleID left.
func (ix *Index) Delete(key int64, tid storage.TupleID) {
	if ix.Kind == HashKind {
		ix.Hash.Delete(key, int64(tid))
		return
	}
	ix.BTree.Delete(key, int64(tid))
}

// Height returns the probe depth estimate (1 for hash indexes).
func (ix *Index) Height() int {
	if ix.Kind == HashKind {
		return 1
	}
	return ix.BTree.Height()
}

// Len returns the number of distinct keys.
func (ix *Index) Len() int {
	if ix.Kind == HashKind {
		return ix.Hash.Len()
	}
	return ix.BTree.Len()
}

// Table is one table's metadata: a heap plus indexes, or a read-only
// virtual source (exactly one of Heap / Virtual is set).
type Table struct {
	Name    string
	Heap    *storage.Table
	Indexes []*Index
	Virtual VirtualTable
}

// Catalog is the name registry.
type Catalog struct {
	tables map[string]*Table
	// version counts the mutations (CreateTable, createIndex, MountVirtual)
	// so that a plan analyzed against the catalog can tell it has gone stale.
	version uint64
}

// Version identifies the catalog's current contents: it changes whenever a
// table, index or virtual table is added. A statement analyzed at one
// version must be re-analyzed once Version returns another.
func (c *Catalog) Version() uint64 { return c.version }

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// CreateTable registers a new table.
func (c *Catalog) CreateTable(name string, schema *storage.Schema) (*Table, error) {
	if _, dup := c.tables[name]; dup {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &Table{Name: name, Heap: storage.NewTable(name, schema)}
	c.tables[name] = t
	c.version++
	return t, nil
}

// Table resolves a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	return t, nil
}

// TableNames lists tables in sorted order.
func (c *Catalog) TableNames() []string {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// maxCellBits is the widest ordered key column. Predicates compare INT
// cells through float64, which holds every integer only up to 2^53; in a
// wider column a range bound could pack apart from a cell that compares
// equal to it.
const maxCellBits = 53

// CreateBTreeIndex adds an ordered index over the named columns with the
// given per-column bit widths for key packing, each at most 53.
func (c *Catalog) CreateBTreeIndex(name, table string, cols []string, bits []uint, unique bool) (*Index, error) {
	if len(cols) != len(bits) {
		return nil, fmt.Errorf("catalog: %d cols but %d bit widths", len(cols), len(bits))
	}
	for _, b := range bits {
		if b > maxCellBits {
			return nil, fmt.Errorf("catalog: a key column of %d bits is wider than %d", b, maxCellBits)
		}
	}
	return c.createIndex(name, table, cols, BTreeKind, bits, unique)
}

// CreateHashIndex adds a hash index over the named columns.
func (c *Catalog) CreateHashIndex(name, table string, cols []string, unique bool) (*Index, error) {
	return c.createIndex(name, table, cols, HashKind, nil, unique)
}

func (c *Catalog) createIndex(name, table string, cols []string, kind IndexKind, bits []uint, unique bool) (*Index, error) {
	t, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	if t.Virtual != nil {
		return nil, fmt.Errorf("catalog: cannot index virtual table %q", table)
	}
	keyCols := make([]int, len(cols))
	for i, col := range cols {
		pos := t.Heap.Schema().ColumnIndex(col)
		if pos < 0 {
			return nil, fmt.Errorf("catalog: table %q has no column %q", table, col)
		}
		keyCols[i] = pos
	}
	ix := &Index{
		Name: name, Kind: kind, Unique: unique,
		KeyCols: keyCols, Bits: bits,
	}
	if kind == HashKind {
		ix.Hash = index.NewHash()
	} else {
		ix.BTree = index.NewBTree()
	}
	t.Indexes = append(t.Indexes, ix)
	c.version++
	return ix, nil
}
