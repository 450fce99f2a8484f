package catalog

import (
	"fmt"

	"tscout/internal/storage"
)

// VirtualOp is a comparison operator in a predicate pushed down to a
// virtual-table scan.
type VirtualOp uint8

// Pushdown comparison operators.
const (
	VirtualEq VirtualOp = iota
	VirtualNe
	VirtualLt
	VirtualLe
	VirtualGt
	VirtualGe
)

// VirtualPred is one WHERE conjunct handed to a virtual table as a
// best-effort filter hint: Col is a schema column position, Val the
// comparison operand. The source may use it to skip whole data blocks
// (zone maps) but need not apply it row-exactly — the executor re-checks
// every predicate on the rows it gets back.
type VirtualPred struct {
	Col int
	Op  VirtualOp
	Val storage.Value
}

// VirtualScanStats reports what a virtual scan touched; the executor
// feeds it into operator features and EXPLAIN output.
type VirtualScanStats struct {
	// Rows produced (before the executor's residual filter).
	Rows int
	// BlocksRead / BlocksSkipped count column blocks decoded vs. pruned
	// by zone maps.
	BlocksRead    int
	BlocksSkipped int
}

// VirtualTable is a read-only relation backed by something other than a
// heap — e.g. the TScout training archive mounted as tscout_archive.
// Scan streams rows in source order: proj lists the schema column
// positions the caller will read (nil means all; unprojected columns come
// back NULL), preds are pushdown hints. fn returning false stops the
// scan early.
type VirtualTable interface {
	Schema() *storage.Schema
	Scan(proj []int, preds []VirtualPred, fn func(storage.Row) bool) VirtualScanStats
}

// Schema returns the table's schema, from the heap or the virtual source.
func (t *Table) Schema() *storage.Schema {
	if t.Virtual != nil {
		return t.Virtual.Schema()
	}
	return t.Heap.Schema()
}

// MountVirtual registers a read-only virtual table under name. It shares
// the namespace with heap tables; indexes cannot be created on it.
func (c *Catalog) MountVirtual(name string, v VirtualTable) (*Table, error) {
	if _, dup := c.tables[name]; dup {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &Table{Name: name, Virtual: v}
	c.tables[name] = t
	c.version++
	return t, nil
}
