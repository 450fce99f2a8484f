package exec

import (
	"encoding/binary"
	"math"
	"slices"

	"tscout/internal/sim"
	"tscout/internal/sql"
	"tscout/internal/storage"
)

func (sp *selectPlan) run(e *Engine, ctx *Ctx, params []storage.Value) (*Result, error) {
	// Row headers move through ctx.rows: cur is the slot holding the rows
	// so far, slot 1 each joined table in turn, and a join writes into the
	// third, which cur then becomes. n counts the rows so far, which a
	// counting join does not build.
	cur := 0
	ap, err := sp.from.bind(ctx, params)
	if err != nil {
		return nil, err
	}
	rows := e.scanRows(ctx, &ap, cur)
	n := len(rows)

	for i := range sp.joins {
		j := &sp.joins[i]
		rap, err := j.access.bind(ctx, params)
		if err != nil {
			return nil, err
		}
		right := e.scanRows(ctx, &rap, 1)
		cur = 2 - cur
		rows, n = e.hashJoin(ctx, rows, right, j, cur, sp.countJoin && i == len(sp.joins)-1)
	}

	// Post-join filter for predicates that needed the combined relation.
	if len(sp.post.preds) > 0 {
		preds, err := sp.post.bind(ctx, params)
		if err != nil {
			return nil, err
		}
		rows = e.filterRows(ctx, rows, preds)
		n = len(rows)
	}

	// Aggregation / projection.
	var res *Result
	if sp.agg != nil {
		res = e.aggregate(ctx, rows, n, sp.agg, sp.cols)
	} else {
		res = sp.project(ctx, rows)
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
// into ctx.rows[slot], and returns them with their number. Two cells join
// when Value.Equal holds (appendKey); when every key on both sides is an
// INT, the build table is keyed on the numbers themselves instead. With
// count set it only counts the joined rows: it builds and probes the same
// table and fires the same OU, but fills no joined row and returns none.
func (e *Engine) hashJoin(ctx *Ctx, left, right []storage.Row, j *joinPlan, slot int, count bool) ([]storage.Row, int) {
	m := e.ouBegin(ctx, OUHashJoin)
	// Build on the right side.
	var buildBytes int64
	for _, row := range right {
		buildBytes += row.Size() + 16
	}
	out := ctx.rows[slot][:0]
	matches := 0
	if allInts(right, j.rcol) && allInts(left, j.lcol) {
		jt := &ctx.join
		jt.build(right, j.rcol)
		if matches = jt.lookup(left, j.lcol); matches > 0 && !count {
			// Every joined row is cut from one slab.
			w := len(left[0]) + len(right[0])
			slab := make([]storage.Value, matches*w)
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
			rrows := build[string(kb)]
			if matches += len(rrows); count {
				continue
			}
			for _, rrow := range rrows {
				joined := make(storage.Row, 0, len(lrow)+len(rrow))
				joined = append(joined, lrow...)
				joined = append(joined, rrow...)
				out = append(out, joined)
			}
		}
	}
	ctx.rows[slot] = out
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
	return out, matches
}

// project evaluates a non-aggregating select list into a Result cut from
// ctx's results. Every projection, SELECT * too, copies its cells into one
// run cut into rows: the input rows are stored rows, valid only until the
// transaction ends (txn.Txn.Read), and a Result lives until ctx's next
// Rewind, which may come after the transaction ends. Cols is the plan's own
// slice.
func (sp *selectPlan) project(ctx *Ctx, rows []storage.Row) *Result {
	res := ctx.results.newResult(sp.cols)
	if len(rows) == 0 {
		return res
	}
	res.Rows = ctx.results.newRows(len(rows))
	w := len(sp.projIdxs)
	cells := ctx.results.newCells(len(rows) * w)
	for r, row := range rows {
		out := cells[r*w : (r+1)*w : (r+1)*w]
		for i, idx := range sp.projIdxs {
			out[i] = row[idx]
		}
		res.Rows[r] = out
	}
	return res
}

// aggAcc is one aggregate expression's accumulator in one group: the
// non-NULL inputs seen, their sum, least and greatest.
type aggAcc struct {
	count    int64
	sum      float64
	min, max storage.Value
}

// aggTable is aggregate's scratch. Groups are numbered in first-seen order:
// group g counted rows[g] input rows, its key is keys[g*k:(g+1)*k] for k
// GROUP BY columns, and its accumulators are accs[g*e:(g+1)*e] for e output
// expressions. index maps a key's bytes (appendKey, built in kb) to its
// group; it is only used under GROUP BY.
type aggTable struct {
	index map[string]int32
	kb    []byte
	rows  []int64
	keys  []storage.Value
	accs  []aggAcc
}

// reset empties the table for an aggregate with k GROUP BY columns.
func (t *aggTable) reset(k int) {
	t.rows, t.keys, t.accs = t.rows[:0], t.keys[:0], t.accs[:0]
	if k > 0 {
		if t.index == nil {
			t.index = make(map[string]int32)
		}
		clear(t.index)
	}
}

// addGroup appends a group whose key is row's cells at groupIdxs, with e
// fresh accumulators.
func (t *aggTable) addGroup(row storage.Row, groupIdxs []int, e int) {
	t.rows = append(t.rows, 0)
	for _, g := range groupIdxs {
		t.keys = append(t.keys, row[g])
	}
	for range e {
		t.accs = append(t.accs, aggAcc{})
	}
}

// group returns the group of row's key, adding the group if it is new. Only
// a new group allocates: its key string, the map's copy of kb.
func (t *aggTable) group(row storage.Row, ap *aggPlan) int {
	t.kb = t.kb[:0]
	for _, g := range ap.groupIdxs {
		t.kb = appendKey(t.kb, row[g])
	}
	if g, ok := t.index[string(t.kb)]; ok {
		return int(g)
	}
	g := len(t.rows)
	t.index[string(t.kb)] = int32(g)
	t.addGroup(row, ap.groupIdxs, len(ap.kinds))
	return g
}

// aggregate groups its n input rows by the GROUP BY keys — two rows share a
// group when Value.Equal holds on every key (appendKey) — and evaluates the
// aggregates into a Result cut from ctx's results. rows holds the
// input unless the aggregate only counts (ap.countOnly): then n is all it
// reads, and a counting join hands it no rows.
func (e *Engine) aggregate(ctx *Ctx, rows []storage.Row, n int, ap *aggPlan, cols []string) *Result {
	m := e.ouBegin(ctx, OUAggregate)
	t := &ctx.agg
	nKeys, nExprs := len(ap.groupIdxs), len(ap.kinds)
	t.reset(nKeys)
	// With no GROUP BY there is one group, which emits a row even over an
	// empty input.
	if nKeys == 0 {
		t.addGroup(nil, nil, nExprs)
	}
	if ap.countOnly {
		t.rows[0] = int64(n)
	} else {
		for _, row := range rows {
			g := 0
			if nKeys > 0 {
				g = t.group(row, ap)
			}
			t.rows[g]++
			accs := t.accs[g*nExprs : (g+1)*nExprs]
			for i, kind := range ap.kinds {
				if kind == sql.AggNone || ap.cols[i] < 0 { // grouping key or COUNT(*)
					continue
				}
				v := row[ap.cols[i]]
				if v.IsNull() {
					continue
				}
				a := &accs[i]
				a.count++
				a.sum += v.AsFloat()
				if a.count == 1 || v.Compare(a.min) < 0 {
					a.min = v
				}
				if a.count == 1 || v.Compare(a.max) > 0 {
					a.max = v
				}
			}
		}
	}

	groups := len(t.rows)
	res := ctx.results.newResult(cols)
	res.Rows = ctx.results.newRows(groups)
	cells := ctx.results.newCells(groups * nExprs)
	for g := range groups {
		row := cells[g*nExprs : (g+1)*nExprs : (g+1)*nExprs]
		accs := t.accs[g*nExprs : (g+1)*nExprs]
		for i, kind := range ap.kinds {
			a := &accs[i]
			switch kind {
			case sql.AggNone:
				row[i] = t.keys[g*nKeys+ap.keySlot[i]]
			case sql.AggCount:
				if ap.cols[i] < 0 {
					row[i] = storage.NewInt(t.rows[g])
				} else {
					row[i] = storage.NewInt(a.count)
				}
			case sql.AggSum:
				row[i] = storage.NewFloat(a.sum)
			case sql.AggAvg:
				if a.count == 0 {
					row[i] = storage.Null()
				} else {
					row[i] = storage.NewFloat(a.sum / float64(a.count))
				}
			case sql.AggMin:
				if a.count == 0 {
					row[i] = storage.Null()
				} else {
					row[i] = a.min
				}
			case sql.AggMax:
				if a.count == 0 {
					row[i] = storage.Null()
				} else {
					row[i] = a.max
				}
			}
		}
		res.Rows[g] = row
	}

	work := sim.Work{
		Instructions:         200 + 34*float64(n)*float64(ap.nAggs+1) + 52*float64(groups),
		BytesTouched:         float64(n) * 24 * float64(ap.nAggs+1),
		WorkingSetBytes:      float64(groups) * 96,
		RandomAccessFraction: 0.5,
		AllocBytes:           int64(groups) * 96,
	}
	ctx.Task.Charge(work)
	ouEnd(ctx, m)
	ouFeatures(ctx, m, work.AllocBytes,
		uint64(n), uint64(groups), uint64(ap.nAggs))
	return res
}

// sortResult orders the result rows by the resolved ORDER BY keys.
func (e *Engine) sortResult(ctx *Ctx, res *Result, sks []sortKey) {
	m := e.ouBegin(ctx, OUSort)
	slices.SortStableFunc(res.Rows, func(a, b storage.Row) int {
		for _, k := range sks {
			if c := a[k.col].Compare(b[k.col]); c != 0 {
				if k.desc {
					return -c
				}
				return c
			}
		}
		return 0
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
