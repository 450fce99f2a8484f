package exec

import (
	"tscout/internal/catalog"
	"tscout/internal/sim"
	"tscout/internal/sql"
	"tscout/internal/storage"
)

// accessPath is one execution's bound way of reading one table: the
// accessPlan's shape with this call's predicate values and index key.
type accessPath struct {
	table *catalog.Table
	index *catalog.Index
	// exact means a full-key point probe; otherwise keyLo..keyHi is a
	// leading-prefix range. index == nil means sequential scan.
	exact        bool
	key          int64
	keyLo, keyHi int64
	// residual predicates to apply after the access path.
	residual []compiledPred
	// proj lists the schema columns the query reads (virtual tables only);
	// nil means all. The scan unions in residual columns itself.
	proj []int
}

// bind evaluates the plan's predicate operands against params and packs the
// index key from the equality values analysis picked. The bound predicates
// are cut from ctx's arena and live until the statement ends.
func (a *accessPlan) bind(ctx *Ctx, params []storage.Value) (accessPath, error) {
	residual, err := a.predSet.bind(ctx, params)
	if err != nil {
		return accessPath{}, err
	}
	ap := accessPath{table: a.table, index: a.index, exact: a.exact, residual: residual, proj: a.proj}
	if a.index != nil {
		var buf [4]storage.Value
		vals := buf[:0]
		for _, i := range a.keyPreds {
			vals = append(vals, residual[i].val)
		}
		if a.exact {
			ap.key = a.index.KeyForValues(vals)
		} else {
			ap.keyLo, ap.keyHi = a.index.PrefixRange(vals)
		}
	}
	return ap, nil
}

// match is one visible row produced by a scan, with its address for DML.
type match struct {
	tid storage.TupleID
	row storage.Row
}

// passes reports whether row satisfies every predicate.
func passes(preds []compiledPred, row storage.Row) bool {
	for i := range preds {
		if !preds[i].eval(row) {
			return false
		}
	}
	return true
}

// runScan executes the access path as its OU (seq_scan or index_scan)
// followed by a filter OU for residual predicates. It returns the visible
// matches that pass, in ctx's scratch: they are good until the statement's
// next scan.
//
// A heap scan reads each tuple once and evaluates the residuals on the row
// the read returned, keeping only what passes; the two OUs then fire one
// after the other from the counts the loop kept. Their features and Work
// are functions of those counts alone, so they are what a scan that
// materialized every visible row and a filter that walked them would report.
func (e *Engine) runScan(ctx *Ctx, ap *accessPath) []match {
	if ap.table.Virtual != nil {
		return e.applyResidual(ctx, ap, e.runVirtualScan(ctx, ap))
	}

	heap := ap.table.Heap
	width := heap.Schema().RowWidth()
	out := ctx.matches[:0]
	// walked counts versions traversed, visible the rows the access path
	// produced (the filter's input), len(out) the rows the filter kept.
	walked, visible := 0, 0
	read := func(id storage.TupleID) {
		row, w := ctx.Txn.Read(heap, id)
		walked += w
		if row == nil {
			return
		}
		visible++
		if passes(ap.residual, row) {
			out = append(out, match{tid: id, row: row})
		}
	}

	if ap.index == nil {
		m := e.ouBegin(ctx, OUSeqScan)
		slots := heap.NumSlots()
		for id := 0; id < slots; id++ {
			read(storage.TupleID(id))
		}
		work := sim.Work{
			Instructions:         140 + 36*float64(slots) + 22*float64(walked),
			BytesTouched:         float64(slots)*float64(width) + 24*float64(walked),
			WorkingSetBytes:      float64(heap.DataBytes()),
			RandomAccessFraction: 0.05,
		}
		ctx.Task.Charge(work)
		ouEnd(ctx, m)
		ouFeatures(ctx, m, 0, uint64(slots), uint64(width), uint64(heap.NumBlocks()))
	} else {
		m := e.ouBegin(ctx, OUIndexScan)
		ntids := 0
		lookups := 1
		if ap.exact {
			tids := ap.index.Search(ap.key)
			ntids = len(tids)
			for _, t := range tids {
				read(storage.TupleID(t))
			}
		} else {
			ap.index.RangeSearch(ap.keyLo, ap.keyHi, func(k int64, ts []int64) bool {
				ntids += len(ts)
				for _, t := range ts {
					read(storage.TupleID(t))
				}
				return true
			})
			lookups = 1 + ntids/8 // leaf-chain hops
		}
		h := float64(ap.index.Height())
		work := sim.Work{
			Instructions:         180 + 60*h*float64(lookups) + 48*float64(ntids) + 22*float64(walked),
			BytesTouched:         64*h*float64(lookups) + float64(visible)*float64(width),
			WorkingSetBytes:      float64(ap.index.Len())*24 + float64(heap.DataBytes())*0.1,
			RandomAccessFraction: 0.85,
		}
		ctx.Task.Charge(work)
		ouEnd(ctx, m)
		ouFeatures(ctx, m, 0,
			uint64(lookups), uint64(ap.index.Height()), uint64(visible), uint64(width))
	}
	ctx.matches = out

	if len(ap.residual) > 0 {
		e.filterOU(ctx, visible, len(ap.residual), len(out))
	}
	return out
}

// filterOU fires the filter OU for a pass of preds predicates over in rows
// that kept out of them.
func (e *Engine) filterOU(ctx *Ctx, in, preds, out int) {
	m := e.ouBegin(ctx, OUFilter)
	ctx.Task.Charge(sim.Work{
		Instructions: 40 + float64(in)*14*float64(preds),
		BytesTouched: float64(in) * 16 * float64(preds),
	})
	ouEnd(ctx, m)
	ouFeatures(ctx, m, 0, uint64(in), uint64(preds), uint64(out))
}

// applyResidual filters a virtual scan's matches, in place. Virtual-table
// pushdown is block-granular (zone maps), so even pushed predicates are
// re-checked here — correctness never depends on the source filtering.
func (e *Engine) applyResidual(ctx *Ctx, ap *accessPath, out []match) []match {
	if len(ap.residual) == 0 {
		return out
	}
	in := len(out)
	kept := out[:0]
	for _, mt := range out {
		if passes(ap.residual, mt.row) {
			kept = append(kept, mt)
		}
	}
	e.filterOU(ctx, in, len(ap.residual), len(kept))
	return kept
}

// runVirtualScan streams a virtual table (e.g. the mounted training
// archive) under the seq_scan OU. The projection is the union of the
// query's needs and the residual predicates' columns; pushdown predicates
// let the source skip whole column blocks via its zone maps.
func (e *Engine) runVirtualScan(ctx *Ctx, ap *accessPath) []match {
	vt := ap.table.Virtual
	schema := vt.Schema()

	proj := ap.proj
	if proj != nil && len(ap.residual) > 0 {
		have := make(map[int]bool, len(proj))
		for _, c := range proj {
			have[c] = true
		}
		for _, p := range ap.residual {
			if !have[p.col] {
				proj = append(proj, p.col)
				have[p.col] = true
			}
		}
	}
	width := schema.RowWidth()
	if proj != nil {
		width = schema.ProjectionWidth(proj)
	}

	push := make([]catalog.VirtualPred, 0, len(ap.residual))
	for _, p := range ap.residual {
		op, ok := virtualOp(p.op)
		if !ok {
			continue
		}
		push = append(push, catalog.VirtualPred{Col: p.col, Op: op, Val: p.val})
	}

	m := e.ouBegin(ctx, OUSeqScan)
	var out []match
	stats := vt.Scan(proj, push, func(row storage.Row) bool {
		out = append(out, match{row: row})
		return true
	})
	blocks := stats.BlocksRead + stats.BlocksSkipped
	work := sim.Work{
		Instructions:         140 + 30*float64(stats.Rows) + 400*float64(blocks),
		BytesTouched:         float64(stats.Rows)*float64(width) + 128*float64(blocks),
		WorkingSetBytes:      float64(stats.Rows) * float64(width),
		RandomAccessFraction: 0.05,
	}
	ctx.Task.Charge(work)
	ouEnd(ctx, m)
	ouFeatures(ctx, m, 0, uint64(stats.Rows), uint64(width), uint64(stats.BlocksRead), uint64(stats.BlocksSkipped))
	return out
}

// virtualOp maps a SQL comparison to the catalog pushdown operator.
func virtualOp(op sql.CmpOp) (catalog.VirtualOp, bool) {
	switch op {
	case sql.OpEq:
		return catalog.VirtualEq, true
	case sql.OpNe:
		return catalog.VirtualNe, true
	case sql.OpLt:
		return catalog.VirtualLt, true
	case sql.OpLe:
		return catalog.VirtualLe, true
	case sql.OpGt:
		return catalog.VirtualGt, true
	case sql.OpGe:
		return catalog.VirtualGe, true
	}
	return 0, false
}
