package workload

import (
	"fmt"
	"strings"

	"tscout/internal/dbms"
	"tscout/internal/storage"
)

// bulkLoad inserts a table's rows through the transaction layer,
// maintaining all indexes, in batches. cells holds the rows back to back,
// one schema width each: Insert copies each row into its version, so a
// generator builds a table in one slice, not one allocation a row.
// Loading happens before measurement and charges no virtual time (the
// paper loads its databases before every experiment too).
func bulkLoad(srv *dbms.Server, table string, cells []storage.Value) error {
	tbl, err := srv.Catalog.Table(table)
	if err != nil {
		return err
	}
	w := tbl.Heap.Schema().NumColumns()
	if len(cells)%w != 0 {
		return fmt.Errorf("workload: loading %s: %d cells are not rows of %d", table, len(cells), w)
	}
	const batch = 4096
	for start := 0; start < len(cells); start += batch * w {
		end := min(start+batch*w, len(cells))
		tx := srv.TxnMgr.Begin()
		for i := start; i < end; i += w {
			row := storage.Row(cells[i : i+w : i+w])
			tid, err := tx.Insert(tbl.Heap, row)
			if err != nil {
				_ = tx.Abort()
				tx.Release()
				return fmt.Errorf("workload: loading %s: %w", table, err)
			}
			for _, ix := range tbl.Indexes {
				ix.Insert(ix.KeyFor(row), tid)
			}
		}
		if _, err := tx.Commit(); err != nil {
			return err
		}
		tx.Release()
	}
	return nil
}

// ints and strs shorten row construction in the loaders.
func iv(v int64) storage.Value   { return storage.NewInt(v) }
func fv(v float64) storage.Value { return storage.NewFloat(v) }
func sv(v string) storage.Value  { return storage.NewString(v) }
func itoa(v int64) string        { return fmt.Sprintf("%d", v) }

// pad right-fills s with 'x' to n bytes.
func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat("x", n-len(s))
}
