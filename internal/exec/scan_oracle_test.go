package exec

// The scan and join the engine ran before scans filtered at the tuple and
// INT joins got a typed table, kept verbatim as the reference for both:
// oracleRunScan materializes every visible index hit and then walks the
// slice under the filter OU (as oracleFilterRows does after a join), each
// predicate a Value.Compare; oracleHashJoin keys every join on the cells'
// rendered text. plan_oracle_test.go's naive planner drives these, so the
// differential tests and FuzzPreparedDifferential compare the engine's
// fused scan and typed join against code that shares neither.

import (
	"tscout/internal/sim"
	"tscout/internal/sql"
	"tscout/internal/storage"
)

// oracleRunScan executes the access path as its OU (seq_scan or index_scan)
// followed by a filter OU for residual predicates. It returns the visible
// matches, freshly allocated.
func oracleRunScan(e *Engine, ctx *Ctx, ap accessPath) []match {
	var out []match

	if ap.table.Virtual != nil {
		out = append(out, e.runVirtualScan(ctx, &ap)...)
		return oracleApplyResidual(e, ctx, ap, out)
	}

	heap := ap.table.Heap
	width := heap.Schema().RowWidth()

	if ap.index == nil {
		m := e.ouBegin(ctx, OUSeqScan)
		slots := 0
		walked := 0
		heap.ScanSlots(func(id storage.TupleID, head *storage.Version) bool {
			slots++
			row, w := ctx.Txn.Read(heap, id)
			walked += w
			if row != nil {
				out = append(out, match{tid: id, row: row})
			}
			return true
		})
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
		var tids []int64
		lookups := 1
		if ap.exact {
			tids = append(tids, ap.index.Search(ap.key)...)
		} else {
			ap.index.RangeSearch(ap.keyLo, ap.keyHi, func(k int64, ts []int64) bool {
				tids = append(tids, ts...)
				return true
			})
			lookups = 1 + len(tids)/8 // leaf-chain hops
		}
		walked := 0
		for _, t := range tids {
			row, w := ctx.Txn.Read(heap, storage.TupleID(t))
			walked += w
			if row != nil {
				out = append(out, match{tid: storage.TupleID(t), row: row})
			}
		}
		h := float64(ap.index.Height())
		work := sim.Work{
			Instructions:         180 + 60*h*float64(lookups) + 48*float64(len(tids)) + 22*float64(walked),
			BytesTouched:         64*h*float64(lookups) + float64(len(out))*float64(width),
			WorkingSetBytes:      float64(ap.index.Len())*24 + float64(heap.DataBytes())*0.1,
			RandomAccessFraction: 0.85,
		}
		ctx.Task.Charge(work)
		ouEnd(ctx, m)
		ouFeatures(ctx, m, 0,
			uint64(lookups), uint64(ap.index.Height()), uint64(len(out)), uint64(width))
	}

	return oracleApplyResidual(e, ctx, ap, out)
}

// oracleApplyResidual runs the filter OU over the scan's matches.
func oracleApplyResidual(e *Engine, ctx *Ctx, ap accessPath, out []match) []match {
	if len(ap.residual) == 0 {
		return out
	}
	m := e.ouBegin(ctx, OUFilter)
	in := len(out)
	kept := out[:0]
	for _, mt := range out {
		ok := true
		for _, p := range ap.residual {
			if !oraclePredEval(p, mt.row) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, mt)
		}
	}
	out = kept
	ctx.Task.Charge(sim.Work{
		Instructions: 40 + float64(in)*14*float64(len(ap.residual)),
		BytesTouched: float64(in) * 16 * float64(len(ap.residual)),
	})
	ouEnd(ctx, m)
	ouFeatures(ctx, m, 0, uint64(in), uint64(len(ap.residual)), uint64(len(out)))
	return out
}

// oraclePredEval is compiledPred.eval as it was: Value.Compare on copies,
// with no INT arm of its own.
func oraclePredEval(p compiledPred, row storage.Row) bool {
	c := row[p.col].Compare(p.val)
	switch p.op {
	case sql.OpEq:
		return c == 0
	case sql.OpNe:
		return c != 0
	case sql.OpLt:
		return c < 0
	case sql.OpLe:
		return c <= 0
	case sql.OpGt:
		return c > 0
	case sql.OpGe:
		return c >= 0
	}
	return false
}

// oracleFilterRows runs the filter OU over joined rows, in place.
func oracleFilterRows(e *Engine, ctx *Ctx, rows []storage.Row, preds []compiledPred) []storage.Row {
	m := e.ouBegin(ctx, OUFilter)
	in := len(rows)
	kept := rows[:0]
	for _, row := range rows {
		ok := true
		for _, p := range preds {
			if !oraclePredEval(p, row) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, row)
		}
	}
	ctx.Task.Charge(sim.Work{
		Instructions: 40 + float64(in)*14*float64(len(preds)),
		BytesTouched: float64(in) * 16 * float64(len(preds)),
	})
	ouEnd(ctx, m)
	ouFeatures(ctx, m, 0, uint64(in), uint64(len(preds)), uint64(len(kept)))
	return kept
}

func oracleMatchRows(matches []match) []storage.Row {
	rows := make([]storage.Row, len(matches))
	for i, m := range matches {
		rows[i] = m.row
	}
	return rows
}

// oracleHashJoin joins left and right rows on the join clause's equality
// columns, keyed on the cells' rendered text whatever their kinds.
func oracleHashJoin(e *Engine, ctx *Ctx, left, right []storage.Row, j *joinPlan) []storage.Row {
	m := e.ouBegin(ctx, OUHashJoin)
	// Build on the right side.
	build := make(map[string][]storage.Row, len(right))
	var buildBytes int64
	for _, row := range right {
		k := row[j.rcol].String()
		build[k] = append(build[k], row)
		buildBytes += row.Size() + 16
	}
	var out []storage.Row
	for _, lrow := range left {
		for _, rrow := range build[lrow[j.lcol].String()] {
			joined := make(storage.Row, 0, len(lrow)+len(rrow))
			joined = append(joined, lrow...)
			joined = append(joined, rrow...)
			out = append(out, joined)
		}
	}
	matches := len(out)
	work := sim.Work{
		Instructions:         300 + 48*float64(len(right)) + 40*float64(len(left)) + 60*float64(matches),
		BytesTouched:         float64(buildBytes) + float64(len(left))*24 + float64(matches)*float64(j.width),
		WorkingSetBytes:      float64(buildBytes),
		RandomAccessFraction: 0.7,
		AllocBytes:           buildBytes + int64(matches)*j.width,
	}
	ctx.Task.Charge(work)
	ouEnd(ctx, m)
	ouFeatures(ctx, m, work.AllocBytes,
		uint64(len(right)), uint64(len(left)), uint64(matches), uint64(j.width))
	return out
}
