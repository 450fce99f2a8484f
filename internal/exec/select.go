package exec

import (
	"sort"

	"tscout/internal/sim"
	"tscout/internal/sql"
	"tscout/internal/storage"
	"tscout/internal/tscout"
)

func (sp *selectPlan) run(e *Engine, ctx *Ctx, params []storage.Value) (*Result, error) {
	// Fused path (§5.2): a simple scan pipeline executed under one
	// measurement, emitting vectorized features.
	if e.FuseSimpleSelects && sp.fusable {
		return sp.runFused(e, ctx, params)
	}

	ap, err := sp.from.bind(params)
	if err != nil {
		return nil, err
	}
	rows := matchRows(e.runScan(ctx, ap))

	for i := range sp.joins {
		j := &sp.joins[i]
		rap, err := j.access.bind(params)
		if err != nil {
			return nil, err
		}
		right := matchRows(e.runScan(ctx, rap))
		rows = e.hashJoin(ctx, rows, right, j)
	}

	// Post-join filter for predicates that needed the combined relation.
	if len(sp.post.preds) > 0 {
		preds, err := sp.post.bind(params)
		if err != nil {
			return nil, err
		}
		rows = e.filterRows(ctx, rows, preds)
	}

	// Aggregation / projection.
	var res *Result
	if sp.agg != nil {
		res = e.aggregate(ctx, rows, sp.agg, sp.cols)
	} else {
		res = sp.project(rows)
	}
	if len(sp.sort) > 0 {
		e.sortResult(ctx, res, sp.sort)
	}
	if sp.limit >= 0 && len(res.Rows) > sp.limit {
		res.Rows = res.Rows[:sp.limit]
	}

	e.emitOutput(ctx, res)
	return res, nil
}

func matchRows(matches []match) []storage.Row {
	rows := make([]storage.Row, len(matches))
	for i, m := range matches {
		rows[i] = m.row
	}
	return rows
}

// filterRows runs the filter OU over joined rows, in place.
func (e *Engine) filterRows(ctx *Ctx, rows []storage.Row, preds []compiledPred) []storage.Row {
	m := e.ouBegin(ctx, OUFilter)
	in := len(rows)
	kept := rows[:0]
	for _, row := range rows {
		ok := true
		for _, p := range preds {
			if !p.eval(row) {
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

// hashJoin joins left and right rows on the join clause's equality columns.
func (e *Engine) hashJoin(ctx *Ctx, left, right []storage.Row, j *joinPlan) []storage.Row {
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

// project evaluates a non-aggregating select list. Result.Cols is a copy:
// the plan's names are shared by every execution.
func (sp *selectPlan) project(rows []storage.Row) *Result {
	res := &Result{Cols: append([]string(nil), sp.cols...)}
	if sp.identity {
		res.Rows = rows
		return res
	}
	if len(rows) > 0 {
		res.Rows = make([]storage.Row, len(rows))
	}
	for r, row := range rows {
		out := make(storage.Row, len(sp.projIdxs))
		for i, idx := range sp.projIdxs {
			out[i] = row[idx]
		}
		res.Rows[r] = out
	}
	return res
}

// aggregate groups rows by the GROUP BY keys and evaluates aggregates.
func (e *Engine) aggregate(ctx *Ctx, rows []storage.Row, ap *aggPlan, cols []string) *Result {
	type aggState struct {
		key    []storage.Value
		count  int64
		sums   []float64
		mins   []storage.Value
		maxs   []storage.Value
		counts []int64
	}
	nExprs := len(ap.kinds)
	newState := func(key []storage.Value) *aggState {
		return &aggState{
			key:    key,
			sums:   make([]float64, nExprs),
			mins:   make([]storage.Value, nExprs),
			maxs:   make([]storage.Value, nExprs),
			counts: make([]int64, nExprs),
		}
	}

	m := e.ouBegin(ctx, OUAggregate)
	groups := make(map[string]*aggState)
	var order []string
	for _, row := range rows {
		kb := make([]byte, 0, 32)
		key := make([]storage.Value, len(ap.groupIdxs))
		for i, g := range ap.groupIdxs {
			key[i] = row[g]
			kb = append(kb, row[g].String()...)
			kb = append(kb, 0)
		}
		ks := string(kb)
		st, ok := groups[ks]
		if !ok {
			st = newState(key)
			groups[ks] = st
			order = append(order, ks)
		}
		st.count++
		for i, kind := range ap.kinds {
			if kind == sql.AggNone || ap.cols[i] < 0 { // grouping key or COUNT(*)
				continue
			}
			v := row[ap.cols[i]]
			if v.IsNull() {
				continue
			}
			st.counts[i]++
			st.sums[i] += v.AsFloat()
			if st.counts[i] == 1 || v.Compare(st.mins[i]) < 0 {
				st.mins[i] = v
			}
			if st.counts[i] == 1 || v.Compare(st.maxs[i]) > 0 {
				st.maxs[i] = v
			}
		}
	}
	// With no GROUP BY, aggregates over the empty input still emit a row.
	if len(ap.groupIdxs) == 0 && len(order) == 0 {
		groups[""] = newState(nil)
		order = append(order, "")
	}

	res := &Result{Cols: append([]string(nil), cols...)}
	for _, ks := range order {
		st := groups[ks]
		row := make(storage.Row, nExprs)
		for i, kind := range ap.kinds {
			switch kind {
			case sql.AggNone:
				row[i] = st.key[ap.keySlot[i]]
			case sql.AggCount:
				if ap.cols[i] < 0 {
					row[i] = storage.NewInt(st.count)
				} else {
					row[i] = storage.NewInt(st.counts[i])
				}
			case sql.AggSum:
				row[i] = storage.NewFloat(st.sums[i])
			case sql.AggAvg:
				if st.counts[i] == 0 {
					row[i] = storage.Null()
				} else {
					row[i] = storage.NewFloat(st.sums[i] / float64(st.counts[i]))
				}
			case sql.AggMin:
				if st.counts[i] == 0 {
					row[i] = storage.Null()
				} else {
					row[i] = st.mins[i]
				}
			case sql.AggMax:
				if st.counts[i] == 0 {
					row[i] = storage.Null()
				} else {
					row[i] = st.maxs[i]
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}

	work := sim.Work{
		Instructions:         200 + 34*float64(len(rows))*float64(ap.nAggs+1) + 52*float64(len(order)),
		BytesTouched:         float64(len(rows)) * 24 * float64(ap.nAggs+1),
		WorkingSetBytes:      float64(len(order)) * 96,
		RandomAccessFraction: 0.5,
		AllocBytes:           int64(len(order)) * 96,
	}
	ctx.Task.Charge(work)
	ouEnd(ctx, m)
	ouFeatures(ctx, m, work.AllocBytes,
		uint64(len(rows)), uint64(len(order)), uint64(ap.nAggs))
	return res
}

// sortResult orders the result rows by the resolved ORDER BY keys.
func (e *Engine) sortResult(ctx *Ctx, res *Result, sks []sortKey) {
	m := e.ouBegin(ctx, OUSort)
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for _, k := range sks {
			c := res.Rows[a][k.col].Compare(res.Rows[b][k.col])
			if c == 0 {
				continue
			}
			if k.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	n := float64(len(res.Rows))
	logn := 1.0
	for x := n; x > 1; x /= 2 {
		logn++
	}
	var width int64 = 16
	if len(res.Rows) > 0 {
		width = res.Rows[0].Size()
	}
	work := sim.Work{
		Instructions:         150 + 30*n*logn*float64(len(sks)),
		BytesTouched:         n * float64(width) * logn,
		WorkingSetBytes:      n * float64(width),
		RandomAccessFraction: 0.4,
	}
	ctx.Task.Charge(work)
	ouEnd(ctx, m)
	ouFeatures(ctx, m, 0, uint64(len(res.Rows)), uint64(width), uint64(len(sks)))
}

// emitOutput runs the output-buffer OU for a result.
func (e *Engine) emitOutput(ctx *Ctx, res *Result) {
	m := e.ouBegin(ctx, OUOutput)
	bytes := res.Bytes()
	ctx.Task.Charge(sim.Work{
		Instructions: 90 + 0.8*float64(bytes) + 20*float64(len(res.Rows)),
		BytesTouched: float64(bytes),
		AllocBytes:   bytes,
	})
	ouEnd(ctx, m)
	ouFeatures(ctx, m, bytes, uint64(len(res.Rows)), uint64(bytes))
}

// runFused runs scan(+filter)+output as one fused pipeline with a single
// metrics measurement and a vectorized FEATURES record (§5.2).
func (sp *selectPlan) runFused(e *Engine, ctx *Ctx, params []storage.Value) (*Result, error) {
	ap, err := sp.from.bind(params)
	if err != nil {
		return nil, err
	}

	pm := e.markers[OUFusedPipeline]
	if pm != nil {
		pm.Begin(ctx.Task)
	}
	// Run the pipeline WITHOUT per-OU markers: one measurement covers it.
	saved := e.markers
	e.markers = nil
	matches := e.runScan(ctx, ap)
	res := sp.project(matchRows(matches))
	if sp.limit >= 0 && len(res.Rows) > sp.limit {
		res.Rows = res.Rows[:sp.limit]
	}
	e.emitOutput(ctx, res)
	e.markers = saved
	if pm != nil {
		pm.End(ctx.Task)
		heap := ap.table.Heap
		scanOU := OUSeqScan
		scanFeat := []uint64{uint64(heap.NumSlots()), uint64(heap.Schema().RowWidth())}
		if ap.index != nil {
			scanOU = OUIndexScan
			scanFeat = []uint64{1, uint64(ap.index.Height()), uint64(len(matches))}
		}
		parts := []tscout.FusedPart{
			{OU: scanOU, Features: scanFeat},
			{OU: OUOutput, Features: []uint64{uint64(len(res.Rows)), uint64(res.Bytes())}},
		}
		if len(ap.residual) > 0 {
			parts = append(parts, tscout.FusedPart{
				OU: OUFilter, Features: []uint64{uint64(len(matches)), uint64(len(ap.residual))},
			})
		}
		if err := pm.FeaturesVector(ctx.Task, res.Bytes(), parts); err != nil {
			return nil, err
		}
	}
	return res, nil
}
