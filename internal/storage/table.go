package storage

// TupleID addresses one tuple slot in a table.
type TupleID int64

// InvalidTupleID is the null tuple address.
const InvalidTupleID TupleID = -1

// Version is one MVCC version of a tuple (HyPer-style newest-to-oldest
// chains). Begin and End are commit timestamps bounding visibility;
// TxnID marks an uncommitted version's owner. Deleted versions are
// tombstones. A chain ends at the newest version the oldest running
// snapshot can see: a committing transaction sets that version's Next to nil
// (package txn), so Next reaches only versions some snapshot may still read.
type Version struct {
	Begin   uint64
	End     uint64
	TxnID   uint64
	Deleted bool
	Values  Row
	Next    *Version // older version
}

// InfinityTS is the open upper bound for live versions.
const InfinityTS = ^uint64(0)

// BlockCapacity is the number of tuple slots per storage block. Blocks
// exist so scans can reason about working-set size the way the columnar
// substrate of the paper (Arrow blocks) would.
const BlockCapacity = 4096

// Table is an in-memory version-chained tuple store.
type Table struct {
	name   string
	schema *Schema
	heads  []*Version
}

// NewTable creates an empty table.
func NewTable(name string, schema *Schema) *Table {
	return &Table{name: name, schema: schema}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumSlots returns the number of allocated tuple slots (live or not).
func (t *Table) NumSlots() int { return len(t.heads) }

// NumBlocks returns the number of storage blocks backing the table.
func (t *Table) NumBlocks() int {
	n := t.NumSlots()
	return (n + BlockCapacity - 1) / BlockCapacity
}

// DataBytes estimates the table's resident data size: slots times row
// width. Scans use it as their working-set size.
func (t *Table) DataBytes() int64 {
	return int64(t.NumSlots()) * t.schema.RowWidth()
}

// Append allocates a new slot with the given head version and returns its
// TupleID.
func (t *Table) Append(v *Version) TupleID {
	t.heads = append(t.heads, v)
	return TupleID(len(t.heads) - 1)
}

// Head returns the newest version of the slot, or nil for out-of-range
// IDs.
func (t *Table) Head(id TupleID) *Version {
	if id < 0 || int(id) >= len(t.heads) {
		return nil
	}
	return t.heads[id]
}

// SetHead replaces the slot's newest version (the caller links Next).
func (t *Table) SetHead(id TupleID, v *Version) bool {
	if id < 0 || int(id) >= len(t.heads) {
		return false
	}
	t.heads[id] = v
	return true
}

// ScanSlots calls fn for every slot in order until fn returns false. The
// callback receives the head version; visibility filtering is the
// transaction layer's job.
func (t *Table) ScanSlots(fn func(id TupleID, head *Version) bool) {
	n := len(t.heads)
	for i := 0; i < n; i++ {
		if !fn(TupleID(i), t.heads[i]) {
			return
		}
	}
}
