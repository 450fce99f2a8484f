package exec

import (
	"tscout/internal/sim"
	"tscout/internal/storage"
)

// coerce converts numeric values to the column's kind (SQL's implicit
// numeric casts); non-numeric mismatches are left for schema validation.
func coerce(v storage.Value, kind storage.Kind) storage.Value {
	switch {
	case v.Kind == storage.KindInt && kind == storage.KindFloat:
		return storage.NewFloat(v.AsFloat())
	case v.Kind == storage.KindFloat && kind == storage.KindInt:
		return storage.NewInt(v.AsInt())
	}
	return v
}

func (ip *insertPlan) run(e *Engine, ctx *Ctx, params []storage.Value) (*Result, error) {
	tbl := ip.table
	numCols := tbl.Heap.Schema().NumColumns()

	m := e.ouBegin(ctx, OUInsert)
	var bytes int64
	indexWork := 0
	for _, exprs := range ip.rows {
		row := make(storage.Row, numCols)
		for i := range exprs {
			v, err := exprs[i].eval(nil, params)
			if err != nil {
				ouEnd(ctx, m)
				ouFeatures(ctx, m, 0, 0, 0, 0)
				return nil, err
			}
			row[ip.positions[i]] = coerce(v, ip.kinds[i])
		}
		tid, err := ctx.Txn.Insert(tbl.Heap, row)
		if err != nil {
			ouEnd(ctx, m)
			ouFeatures(ctx, m, 0, 0, 0, 0)
			return nil, err
		}
		for _, ix := range tbl.Indexes {
			ix.Insert(ix.KeyFor(row), tid)
			indexWork += ix.Height()
		}
		bytes += row.Size()
	}
	n := len(ip.rows)
	work := sim.Work{
		Instructions:         160 + 110*float64(n) + 1.1*float64(bytes) + 70*float64(indexWork),
		BytesTouched:         float64(bytes) + 64*float64(indexWork),
		WorkingSetBytes:      float64(bytes) + 8192,
		RandomAccessFraction: 0.6,
		AllocBytes:           bytes + int64(n)*48,
	}
	ctx.Task.Charge(work)
	ouEnd(ctx, m)
	ouFeatures(ctx, m, work.AllocBytes, uint64(n), uint64(bytes), uint64(len(tbl.Indexes)))
	return &Result{Affected: n}, nil
}

func (up *updatePlan) run(e *Engine, ctx *Ctx, params []storage.Value) (*Result, error) {
	ap, err := up.access.bind(ctx, params)
	if err != nil {
		return nil, err
	}
	tbl := ap.table
	matches := e.runScan(ctx, &ap)

	m := e.ouBegin(ctx, OUUpdate)
	var bytes int64
	indexWork := 0
	for _, mt := range matches {
		newRow := mt.row.Clone()
		for i := range up.setVals {
			v, err := up.setVals[i].eval(mt.row, params)
			if err != nil {
				ouEnd(ctx, m)
				ouFeatures(ctx, m, 0, 0, 0, 0)
				return nil, err
			}
			newRow[up.setCols[i]] = coerce(v, up.setKinds[i])
		}
		if err := ctx.Txn.Update(tbl.Heap, mt.tid, newRow); err != nil {
			ouEnd(ctx, m)
			ouFeatures(ctx, m, 0, 0, 0, 0)
			return nil, err
		}
		// Index maintenance only when a key column changed. The old-key
		// entry stays for older snapshots (lazy cleanup under MVCC);
		// scans re-check predicates so it cannot produce wrong matches.
		for _, ix := range tbl.Indexes {
			oldKey, newKey := ix.KeyFor(mt.row), ix.KeyFor(newRow)
			if oldKey != newKey {
				ix.Insert(newKey, mt.tid)
				indexWork += ix.Height()
			}
		}
		bytes += newRow.Size()
	}
	n := len(matches)
	work := sim.Work{
		Instructions:         150 + 130*float64(n) + 0.9*float64(bytes) + 70*float64(indexWork),
		BytesTouched:         2*float64(bytes) + 64*float64(indexWork),
		WorkingSetBytes:      float64(bytes) + 8192,
		RandomAccessFraction: 0.6,
		AllocBytes:           bytes,
	}
	ctx.Task.Charge(work)
	ouEnd(ctx, m)
	ouFeatures(ctx, m, work.AllocBytes, uint64(n), uint64(bytes), uint64(len(tbl.Indexes)))
	return &Result{Affected: n}, nil
}

func (dp *deletePlan) run(e *Engine, ctx *Ctx, params []storage.Value) (*Result, error) {
	ap, err := dp.access.bind(ctx, params)
	if err != nil {
		return nil, err
	}
	tbl := ap.table
	matches := e.runScan(ctx, &ap)

	m := e.ouBegin(ctx, OUDelete)
	indexWork := 0
	for _, mt := range matches {
		if err := ctx.Txn.Delete(tbl.Heap, mt.tid); err != nil {
			ouEnd(ctx, m)
			ouFeatures(ctx, m, 0, 0, 0)
			return nil, err
		}
		// Index entries stay: the tombstone version filters probes, and
		// older snapshots still reach the pre-delete version through them.
		indexWork += len(tbl.Indexes)
	}
	n := len(matches)
	work := sim.Work{
		Instructions:         130 + 90*float64(n) + 70*float64(indexWork),
		BytesTouched:         float64(n)*48 + 64*float64(indexWork),
		RandomAccessFraction: 0.6,
	}
	ctx.Task.Charge(work)
	ouEnd(ctx, m)
	ouFeatures(ctx, m, 0, uint64(n), uint64(len(tbl.Indexes)))
	return &Result{Affected: n}, nil
}
