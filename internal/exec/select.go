package exec

import (
	"encoding/binary"
	"math"
	"sort"

	"tscout/internal/sim"
	"tscout/internal/sql"
	"tscout/internal/storage"
)

func (sp *selectPlan) run(e *Engine, ctx *Ctx, params []storage.Value) (*Result, error) {
	// Fused path (§5.2): a simple scan pipeline executed under one
	// measurement, emitting vectorized features.
	if e.FuseSimpleSelects && sp.fusable {
		return sp.runFused(e, ctx, params)
	}

	// Row headers move through ctx.rows: cur is the slot holding the rows
	// so far, slot 1 each joined table in turn, and a join writes into the
	// third, which cur then becomes.
	cur := 0
	ap, err := sp.from.bind(ctx, params)
	if err != nil {
		return nil, err
	}
	rows := e.scanRows(ctx, &ap, cur)

	for i := range sp.joins {
		j := &sp.joins[i]
		rap, err := j.access.bind(ctx, params)
		if err != nil {
			return nil, err
		}
		right := e.scanRows(ctx, &rap, 1)
		cur = 2 - cur
		rows = e.hashJoin(ctx, rows, right, j, cur)
	}

	// Post-join filter for predicates that needed the combined relation.
	if len(sp.post.preds) > 0 {
		preds, err := sp.post.bind(ctx, params)
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

// scanRows runs the scan and copies its matches' row headers into
// ctx.rows[slot], where they outlive the statement's next scan.
func (e *Engine) scanRows(ctx *Ctx, ap *accessPath, slot int) []storage.Row {
	rows := ctx.rows[slot][:0]
	for _, m := range e.runScan(ctx, ap) {
		rows = append(rows, m.row)
	}
	ctx.rows[slot] = rows
	return rows
}

// filterRows runs the filter OU over joined rows, in place.
func (e *Engine) filterRows(ctx *Ctx, rows []storage.Row, preds []compiledPred) []storage.Row {
	kept := rows[:0]
	for _, row := range rows {
		if passes(preds, row) {
			kept = append(kept, row)
		}
	}
	e.filterOU(ctx, len(rows), len(preds), len(kept))
	return kept
}

// appendKey appends v's equality key to b. Two cells get the same key
// exactly when Value.Equal holds: NULL is a key of its own, INT and FLOAT key
// by numeric value (as float64, the way Compare compares them), and a
// string by its length and bytes. Each key is self-delimiting, so a list of
// them never runs together. Equal holds NaN equal to every number, which no
// key can follow, so NaN is a key of its own.
func appendKey(b []byte, v storage.Value) []byte {
	switch v.Kind() {
	case storage.KindNull:
		return append(b, 0)
	case storage.KindString:
		s := v.Str()
		return append(binary.AppendUvarint(append(b, 1), uint64(len(s))), s...)
	}
	f := v.AsFloat()
	if math.IsNaN(f) {
		return append(b, 2)
	}
	return binary.LittleEndian.AppendUint64(append(b, 3), numKey(f))
}

// numKey is a number's key: its float64 bits, with −0 folded into +0.
func numKey(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

// joinTable is hashJoin's scratch when every join key is an INT: head maps
// a key (numKey of the INT) to the first build row that has it, next chains
// each build row to the following one with the same key, and probe holds,
// per probe row, the head of its key's chain; -1 ends a chain. head is only
// ever looked up, never ranged over.
type joinTable struct {
	head  map[uint64]int32
	next  []int32
	probe []int32
}

// build indexes rows by their col'th cell. The chains are threaded from the
// last row to the first, so each key's rows come out in input order.
func (jt *joinTable) build(rows []storage.Row, col int) {
	if jt.head == nil {
		jt.head = make(map[uint64]int32, len(rows))
	}
	clear(jt.head)
	jt.next = jt.next[:0]
	for range rows {
		jt.next = append(jt.next, -1)
	}
	for i := len(rows) - 1; i >= 0; i-- {
		k := numKey(rows[i][col].AsFloat())
		if h, ok := jt.head[k]; ok {
			jt.next[i] = h
		}
		jt.head[k] = int32(i)
	}
}

// lookup finds each row's chain by its col'th cell, into probe, and returns
// the number of (row, build row) pairs.
func (jt *joinTable) lookup(rows []storage.Row, col int) (matches int) {
	jt.probe = jt.probe[:0]
	for _, row := range rows {
		h, ok := jt.head[numKey(row[col].AsFloat())]
		if !ok {
			h = -1
		}
		jt.probe = append(jt.probe, h)
		for r := h; r >= 0; r = jt.next[r] {
			matches++
		}
	}
	return matches
}

// allInts reports whether every row's col'th cell is an INT — checked on
// the values: a schema's INT column may hold NULL.
func allInts(rows []storage.Row, col int) bool {
	for _, row := range rows {
		if row[col].Kind() != storage.KindInt {
			return false
		}
	}
	return true
}

// hashJoin joins left and right rows on the join clause's equality columns
// into ctx.rows[slot]. Two cells join when Value.Equal holds (appendKey);
// when every key on both sides is an INT, the build table is keyed on the
// numbers themselves instead.
func (e *Engine) hashJoin(ctx *Ctx, left, right []storage.Row, j *joinPlan, slot int) []storage.Row {
	m := e.ouBegin(ctx, OUHashJoin)
	// Build on the right side.
	var buildBytes int64
	for _, row := range right {
		buildBytes += row.Size() + 16
	}
	out := ctx.rows[slot][:0]
	if allInts(right, j.rcol) && allInts(left, j.lcol) {
		jt := &ctx.join
		jt.build(right, j.rcol)
		if n := jt.lookup(left, j.lcol); n > 0 {
			// Every joined row is cut from one slab.
			w := len(left[0]) + len(right[0])
			slab := make([]storage.Value, n*w)
			for i, lrow := range left {
				for r := jt.probe[i]; r >= 0; r = jt.next[r] {
					joined := slab[:w:w]
					slab = slab[w:]
					copy(joined[copy(joined, lrow):], right[r])
					out = append(out, joined)
				}
			}
		}
	} else {
		build := make(map[string][]storage.Row, len(right))
		var kb []byte
		for _, row := range right {
			kb = appendKey(kb[:0], row[j.rcol])
			build[string(kb)] = append(build[string(kb)], row)
		}
		for _, lrow := range left {
			kb = appendKey(kb[:0], lrow[j.lcol])
			for _, rrow := range build[string(kb)] {
				joined := make(storage.Row, 0, len(lrow)+len(rrow))
				joined = append(joined, lrow...)
				joined = append(joined, rrow...)
				out = append(out, joined)
			}
		}
	}
	ctx.rows[slot] = out
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

// project evaluates a non-aggregating select list into a Result the caller
// owns: rows arrive in statement scratch, so the identity projection copies
// their headers out (the stored rows they point at are immutable) and any
// other fills one slab of values cut into rows. Result.Cols is a copy too:
// the plan's names are shared by every execution.
func (sp *selectPlan) project(rows []storage.Row) *Result {
	res := &Result{Cols: append([]string(nil), sp.cols...)}
	if sp.identity {
		res.Rows = append(make([]storage.Row, 0, len(rows)), rows...)
		return res
	}
	if len(rows) == 0 {
		return res
	}
	w := len(sp.projIdxs)
	slab := make([]storage.Value, len(rows)*w)
	res.Rows = make([]storage.Row, len(rows))
	for r, row := range rows {
		out := slab[r*w : (r+1)*w : (r+1)*w]
		for i, idx := range sp.projIdxs {
			out[i] = row[idx]
		}
		res.Rows[r] = out
	}
	return res
}

// aggregate groups rows by the GROUP BY keys — two rows share a group when
// Value.Equal holds on every key (appendKey) — and evaluates aggregates.
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
			kb = appendKey(kb, row[g])
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
	ap, err := sp.from.bind(ctx, params)
	if err != nil {
		return nil, err
	}

	pm := e.markers[OUFusedPipeline]
	if pm != nil {
		pm.Begin(ctx.Task)
	}
	// Run the pipeline WITHOUT per-OU markers: one measurement covers it,
	// and each operator's features become one part of its vector. The bit
	// travels on this statement's Ctx; the engine's markers belong to every
	// session.
	ctx.fused, ctx.parts = true, ctx.parts[:0]
	rows := e.scanRows(ctx, &ap, 0)
	res := sp.project(rows)
	if sp.limit >= 0 && len(res.Rows) > sp.limit {
		res.Rows = res.Rows[:sp.limit]
	}
	e.emitOutput(ctx, res)
	ctx.fused = false
	if pm != nil {
		pm.End(ctx.Task)
		if err := pm.FeaturesVector(ctx.Task, res.Bytes(), ctx.parts); err != nil {
			return nil, err
		}
	}
	return res, nil
}
