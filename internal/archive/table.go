package archive

import (
	"tscout/internal/catalog"
	"tscout/internal/storage"
	"tscout/internal/tscout"
)

// TableName is the name the training archive mounts under.
const TableName = "tscout_archive"

// Schema column positions of the mounted archive relation. Order: ou,
// ou_name, subsystem, pid, the 11 metrics of tscout.MetricNames, then the
// encoded features cell — the same shape as the CSV export, so SQL over
// the mount and aggregation over the export agree column-for-column.
const (
	ColOU        = 0
	ColOUName    = 1
	ColSubsystem = 2
	ColPID       = 3
	colMetric0   = 4
	// ColFeatures holds the name=value;... cell (appendFeatureCell).
	ColFeatures = colMetric0 + tscout.NumMetrics
	numCols     = ColFeatures + 1
)

// tableSchema builds the relation schema for the mount.
func tableSchema() *storage.Schema {
	cols := make([]storage.Column, 0, numCols)
	cols = append(cols,
		storage.Column{Name: "ou", Kind: storage.KindInt},
		storage.Column{Name: "ou_name", Kind: storage.KindString},
		storage.Column{Name: "subsystem", Kind: storage.KindString},
		storage.Column{Name: "pid", Kind: storage.KindInt},
	)
	for _, m := range tscout.MetricNames {
		cols = append(cols, storage.Column{Name: m, Kind: storage.KindInt})
	}
	cols = append(cols, storage.Column{Name: "features", Kind: storage.KindString})
	return storage.MustSchema(cols...)
}

// Table mounts a Reader as a catalog.VirtualTable: scans project columns
// straight out of the archive's blocks (no TrainingPoint materialization)
// and use block zone maps to skip whole blocks under pushdown predicates.
type Table struct {
	r      *Reader
	schema *storage.Schema
}

// NewTable wraps a Reader for mounting.
func NewTable(r *Reader) *Table {
	return &Table{r: r, schema: tableSchema()}
}

// Mount registers the archive as TableName in cat.
func Mount(cat *catalog.Catalog, r *Reader) (*catalog.Table, error) {
	return cat.MountVirtual(TableName, NewTable(r))
}

// Schema implements catalog.VirtualTable.
func (t *Table) Schema() *storage.Schema { return t.schema }

// blockSkipped reports whether the block's zone maps prove no row can
// satisfy pred. Only provably-false blocks are skipped; everything else
// is decoded and left to the executor's residual filter.
func blockSkipped(b *Block, pred catalog.VirtualPred) bool {
	switch pred.Col {
	case ColOU:
		return intRangeExcludes(int64(b.OU()), int64(b.OU()), pred)
	case ColOUName:
		return strExcludes(b.OUName(), pred)
	case ColSubsystem:
		return strExcludes(b.Subsystem().String(), pred)
	case ColPID:
		lo, hi := b.PIDRange()
		return intRangeExcludes(lo, hi, pred)
	case ColFeatures:
		return false
	default:
		m := pred.Col - colMetric0
		if m < 0 || m >= tscout.NumMetrics {
			return false
		}
		lo, hi := b.MetricRange(m)
		return intRangeExcludes(lo, hi, pred)
	}
}

// intRangeExcludes reports whether [lo,hi] provably excludes pred over an
// integer column.
func intRangeExcludes(lo, hi int64, pred catalog.VirtualPred) bool {
	if pred.Val.Kind() != storage.KindInt && pred.Val.Kind() != storage.KindFloat {
		return false
	}
	v := pred.Val.AsInt()
	switch pred.Op {
	case catalog.VirtualEq:
		return v < lo || v > hi
	case catalog.VirtualNe:
		return lo == hi && lo == v
	case catalog.VirtualLt:
		return lo >= v
	case catalog.VirtualLe:
		return lo > v
	case catalog.VirtualGt:
		return hi <= v
	case catalog.VirtualGe:
		return hi < v
	}
	return false
}

// strExcludes evaluates equality predicates against a block-constant
// string column (ou_name, subsystem are uniform within a block).
func strExcludes(have string, pred catalog.VirtualPred) bool {
	if pred.Val.Kind() != storage.KindString {
		return false
	}
	switch pred.Op {
	case catalog.VirtualEq:
		return have != pred.Val.Str()
	case catalog.VirtualNe:
		return have == pred.Val.Str()
	}
	return false
}

// Scan implements catalog.VirtualTable. Rows stream in storage (block)
// order; only projected columns are decoded. A decode error on a block
// (impossible for archives our Writer produced, but reachable on
// hand-corrupted input that passed checksums) terminates the scan early
// rather than fabricating rows.
func (t *Table) Scan(proj []int, preds []catalog.VirtualPred, fn func(storage.Row) bool) catalog.VirtualScanStats {
	var stats catalog.VirtualScanStats
	want := make([]bool, numCols)
	if proj == nil {
		for i := range want {
			want[i] = true
		}
	} else {
		for _, c := range proj {
			if c >= 0 && c < numCols {
				want[c] = true
			}
		}
	}

	// text holds a block's feature cells end to end, and ends[i] is where
	// row i's ends; both are reused for every block.
	var (
		text []byte
		ends []int
	)
	t.r.Blocks(func(b *Block) bool {
		for _, p := range preds {
			if blockSkipped(b, p) {
				stats.BlocksSkipped++
				return true
			}
		}
		stats.BlocksRead++

		// Decode only what the projection needs.
		var (
			pids    []int64
			metrics [tscout.NumMetrics][]int64
			feats   [][]float64
			err     error
		)
		if want[ColPID] {
			if pids, err = b.PIDs(); err != nil {
				return false
			}
		}
		for m := range metrics {
			if want[colMetric0+m] {
				if metrics[m], err = b.Metric(m); err != nil {
					return false
				}
			}
		}
		if want[ColFeatures] {
			feats = make([][]float64, b.NumFeatures())
			for f := range feats {
				if feats[f], err = b.Feature(f); err != nil {
					return false
				}
			}
		}

		// The block's feature cells are one string, and each row's cell is
		// a slice of it: a row that fn keeps keeps the whole text alive.
		var features string
		if want[ColFeatures] {
			names := make([]string, b.meta.named)
			for i := range names {
				names[i] = b.FeatureName(i)
			}
			featVec := make([]float64, b.NumFeatures())
			text, ends = text[:0], ends[:0]
			for rowI := 0; rowI < b.NumRows(); rowI++ {
				for f := range feats {
					featVec[f] = feats[f][rowI]
				}
				text = appendFeatureCell(text, names, featVec)
				ends = append(ends, len(text))
			}
			features = string(text)
		}

		ouVal := storage.NewInt(int64(b.OU()))
		nameVal := storage.NewString(b.OUName())
		subVal := storage.NewString(b.Subsystem().String())

		// fn may keep its rows, so none is reused: a block's rows are cut
		// from one array, each capped so that no row can grow into the next.
		cells := make([]storage.Value, b.NumRows()*numCols)
		for rowI := 0; rowI < b.NumRows(); rowI++ {
			row := storage.Row(cells[rowI*numCols : (rowI+1)*numCols : (rowI+1)*numCols])
			if want[ColOU] {
				row[ColOU] = ouVal
			}
			if want[ColOUName] {
				row[ColOUName] = nameVal
			}
			if want[ColSubsystem] {
				row[ColSubsystem] = subVal
			}
			if want[ColPID] {
				row[ColPID] = storage.NewInt(pids[rowI])
			}
			for m, col := range metrics {
				if want[colMetric0+m] {
					row[colMetric0+m] = storage.NewInt(col[rowI])
				}
			}
			if want[ColFeatures] {
				start := 0
				if rowI > 0 {
					start = ends[rowI-1]
				}
				row[ColFeatures] = storage.NewString(features[start:ends[rowI]])
			}
			stats.Rows++
			if !fn(row) {
				return false
			}
		}
		return true
	})
	return stats
}
