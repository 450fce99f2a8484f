package model

import (
	"fmt"

	"tscout/internal/archive"
	"tscout/internal/tscout"
)

// FromArchive builds model points straight from the columnar archive:
// each block's elapsed_ns and feature columns are read directly, so
// Fig-11-style training runs never materialize TrainingPoint structs or
// re-parse rows. Each row is placed at its global row index's position
// (archive order), making the output element-for-element identical to
// FromTrainingPoints(reader.Points(), hwContext), the row-at-a-time oracle
// in archive_test.go. A row index outside the archive or seen twice is
// archive.ErrCorrupt.
//
// Every point's features are cut from one arena per call, sized by a pass
// over the blocks' metadata that decodes nothing, so a call's allocations
// do not grow with its blocks.
func FromArchive(r *archive.Reader, hwContext []float64) ([]Point, error) {
	n := uint64(r.NumRows())
	first := r.FirstRow()
	out := make([]Point, n)
	placed := make([]uint64, (n+63)/64)
	var size int
	r.Blocks(func(b *archive.Block) bool {
		size += b.NumRows() * (b.NumFeatures() + len(hwContext))
		return true
	})
	arena := make([]float64, size)
	cols := make([][]float64, 0, tscout.MaxFeatures)
	var err error
	r.Blocks(func(b *archive.Block) bool {
		idx, e := b.RowIndexes()
		if e != nil {
			err = e
			return false
		}
		elapsed, e := b.Metric(0) // elapsed_ns is metric column 0
		if e != nil {
			err = e
			return false
		}
		nf := b.NumFeatures()
		cols = cols[:0]
		for f := 0; f < nf; f++ {
			col, e := b.Feature(f)
			if e != nil {
				err = e
				return false
			}
			cols = append(cols, col)
		}
		ou, sub := b.OU(), b.Subsystem()
		// Each point's cut of the arena is capacity-limited, so appending
		// to one point's features never reaches the next.
		width := nf + len(hwContext)
		blockArena := arena[:width*len(idx)]
		arena = arena[width*len(idx):]
		for row, ri := range idx {
			pos := ri - first
			if pos >= n {
				err = fmt.Errorf("%w: row index %d outside the archive's rows [%d,+%d)", archive.ErrCorrupt, ri, first, n)
				return false
			}
			if placed[pos/64]&(1<<(pos%64)) != 0 {
				err = fmt.Errorf("%w: duplicate row index %d", archive.ErrCorrupt, ri)
				return false
			}
			placed[pos/64] |= 1 << (pos % 64)
			feats := blockArena[row*width : (row+1)*width : (row+1)*width]
			for f, col := range cols {
				feats[f] = col[row]
			}
			// The template hashes the point's own features only; hardware
			// context joins the model inputs afterwards (same order as
			// FromTrainingPoints).
			copy(feats[nf:], hwContext)
			out[pos] = Point{
				OU:       ou,
				Sub:      sub,
				Features: feats,
				TargetUS: float64(elapsed[row]) / 1000.0,
				Template: templateKeyOf(ou, feats[:nf]),
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
