package exec

// The differential oracle for Prepare/Run: the per-call analysis the engine
// did before statements were prepared — relation metadata, predicate
// compilation, access-path choice and projection rebuilt from the AST and
// the parameter values on every execution — kept here, verbatim, as the
// reference the prepared path is compared against. oracleExecute drives
// scan_oracle_test.go's scan, join and filter and the engine's own
// remaining operators (aggregate, sortResult, emitOutput) from that
// per-call analysis, surfacing every error where the old executor did:
// name-resolution failures mid-execution, after the scans they followed.

import (
	"fmt"
	"sort"

	"tscout/internal/catalog"
	"tscout/internal/sim"
	"tscout/internal/sql"
	"tscout/internal/storage"
	"tscout/internal/tscout"
)

// oracleRelation is a materialized intermediate result: rows plus column
// binding metadata for name resolution across joins.
type oracleRelation struct {
	cols  []string // qualified "binding.col"
	bare  map[string]int
	qual  map[string]int
	rows  []storage.Row
	width int64 // estimated bytes per row
}

const ambiguous = -2

func oracleNewRelation(binding string, schema *storage.Schema) *oracleRelation {
	r := &oracleRelation{
		bare:  make(map[string]int),
		qual:  make(map[string]int),
		width: schema.RowWidth(),
	}
	for i, c := range schema.Columns() {
		r.addCol(binding, c.Name, i)
	}
	return r
}

func (r *oracleRelation) addCol(binding, name string, idx int) {
	r.cols = append(r.cols, binding+"."+name)
	r.qual[binding+"."+name] = idx
	if _, dup := r.bare[name]; dup {
		r.bare[name] = ambiguous
	} else {
		r.bare[name] = idx
	}
}

func (r *oracleRelation) resolve(c sql.ColRef) (int, error) {
	if c.Table != "" {
		if i, ok := r.qual[c.Table+"."+c.Name]; ok {
			return i, nil
		}
		return 0, fmt.Errorf("exec: unknown column %s", c)
	}
	i, ok := r.bare[c.Name]
	if !ok {
		return 0, fmt.Errorf("exec: unknown column %s", c.Name)
	}
	if i == ambiguous {
		return 0, fmt.Errorf("exec: ambiguous column %s", c.Name)
	}
	return i, nil
}

func oracleConcatRelations(a, b *oracleRelation) *oracleRelation {
	out := &oracleRelation{
		bare:  make(map[string]int),
		qual:  make(map[string]int),
		width: a.width + b.width,
	}
	for i, qc := range a.cols {
		out.cols = append(out.cols, qc)
		out.qual[qc] = i
		bare := bareName(qc)
		if _, dup := out.bare[bare]; dup {
			out.bare[bare] = ambiguous
		} else {
			out.bare[bare] = i
		}
	}
	off := len(a.cols)
	for i, qc := range b.cols {
		out.cols = append(out.cols, qc)
		out.qual[qc] = off + i
		bare := bareName(qc)
		if _, dup := out.bare[bare]; dup {
			out.bare[bare] = ambiguous
		} else {
			out.bare[bare] = off + i
		}
	}
	return out
}

// oracleEvalExpr evaluates a scalar expression against an optional input
// row, resolving column names on every call.
func oracleEvalExpr(e sql.Expr, row storage.Row, rel *oracleRelation, params []storage.Value) (storage.Value, error) {
	switch x := e.(type) {
	case sql.Literal:
		return x.Val, nil
	case sql.Param:
		if x.N < 1 || x.N > len(params) {
			return storage.Value{}, fmt.Errorf("exec: parameter $%d not bound (%d given)", x.N, len(params))
		}
		return params[x.N-1], nil
	case sql.ColExpr:
		if rel == nil || row == nil {
			return storage.Value{}, fmt.Errorf("exec: column %s in a context without input rows", x.Ref)
		}
		i, err := rel.resolve(x.Ref)
		if err != nil {
			return storage.Value{}, err
		}
		return row[i], nil
	case sql.Binary:
		l, err := oracleEvalExpr(x.Left, row, rel, params)
		if err != nil {
			return storage.Value{}, err
		}
		r, err := oracleEvalExpr(x.Right, row, rel, params)
		if err != nil {
			return storage.Value{}, err
		}
		return applyBinary(l, x.Op, r)
	}
	return storage.Value{}, fmt.Errorf("exec: unsupported expression %T", e)
}

// oracleCompilePreds resolves WHERE conjuncts against rel and evaluates
// their operands, deferring those that reference other relations.
func oracleCompilePreds(preds []sql.Predicate, rel *oracleRelation, params []storage.Value) (compiled []compiledPred, deferred []sql.Predicate, err error) {
	for _, p := range preds {
		idx, rerr := rel.resolve(p.Col)
		if rerr != nil {
			deferred = append(deferred, p)
			continue
		}
		v, verr := oracleEvalExpr(p.Val, nil, nil, params)
		if verr != nil {
			return nil, nil, verr
		}
		compiled = append(compiled, compiledPred{col: idx, op: p.Op, val: v})
	}
	sort.SliceStable(compiled, func(i, j int) bool { return compiled[i].col < compiled[j].col })
	return compiled, deferred, nil
}

// oraclePlanAccess picks the access path for already-bound predicates.
func oraclePlanAccess(tbl *catalog.Table, preds []compiledPred) accessPath {
	eq := make(map[int]storage.Value)
	for _, p := range preds {
		if p.op == sql.OpEq {
			if _, dup := eq[p.col]; !dup {
				eq[p.col] = p.val
			}
		}
	}
	var best accessPath
	best.table = tbl
	bestScore := 0 // 0 = seqscan, 1 = prefix, 2 = full, 3 = full unique
	for _, ix := range tbl.Indexes {
		covered := 0
		for _, kc := range ix.KeyCols {
			if _, ok := eq[kc]; ok {
				covered++
			} else {
				break
			}
		}
		if covered == 0 {
			continue
		}
		full := covered == len(ix.KeyCols)
		score := 1
		if full {
			score = 2
			if ix.Unique {
				score = 3
			}
		}
		if !full && ix.Kind == catalog.HashKind {
			continue
		}
		if score <= bestScore {
			continue
		}
		vals := make([]storage.Value, covered)
		for i := 0; i < covered; i++ {
			vals[i] = eq[ix.KeyCols[i]]
		}
		ap := accessPath{table: tbl, index: ix}
		if full {
			ap.exact = true
			ap.key = ix.KeyForValues(vals)
		} else {
			ap.keyLo, ap.keyHi = ix.PrefixRange(vals)
		}
		ap.residual = preds
		best = ap
		bestScore = score
	}
	if bestScore == 0 {
		best.residual = preds
	}
	return best
}

// oracleProjection resolves a non-aggregating select list: the output names
// and the input position of each.
func oracleProjection(rel *oracleRelation, s *sql.SelectStmt) (cols []string, idxs []int, err error) {
	for _, x := range s.Exprs {
		if x.Star {
			for i, qc := range rel.cols {
				cols = append(cols, qc)
				idxs = append(idxs, i)
			}
			continue
		}
		i, err := rel.resolve(x.Col)
		if err != nil {
			return nil, nil, err
		}
		cols = append(cols, x.Col.String())
		idxs = append(idxs, i)
	}
	return cols, idxs, nil
}

// oracleProject evaluates a non-aggregating select list.
func oracleProject(rel *oracleRelation, s *sql.SelectStmt) (*Result, error) {
	cols, idxs, err := oracleProjection(rel, s)
	if err != nil {
		return nil, err
	}
	res := &Result{Cols: cols}
	full := len(idxs) == len(rel.cols)
	if full {
		ordered := true
		for i, idx := range idxs {
			if i != idx {
				ordered = false
				break
			}
		}
		if ordered {
			res.Rows = rel.rows
			return res, nil
		}
	}
	for _, row := range rel.rows {
		out := make(storage.Row, len(idxs))
		for i, idx := range idxs {
			out[i] = row[idx]
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

func oracleVirtualProjection(s *sql.SelectStmt, rel *oracleRelation) []int {
	var cols []int
	seen := make(map[int]bool)
	add := func(c sql.ColRef) bool {
		idx, err := rel.resolve(c)
		if err != nil {
			return false
		}
		if !seen[idx] {
			seen[idx] = true
			cols = append(cols, idx)
		}
		return true
	}
	for _, x := range s.Exprs {
		if x.Star {
			return nil
		}
		if x.Agg == sql.AggCount && x.Col.Name == "" {
			continue
		}
		if !add(x.Col) {
			return nil
		}
	}
	for _, g := range s.GroupBy {
		if !add(g) {
			return nil
		}
	}
	for _, k := range s.OrderBy {
		if !add(k.Col) {
			return nil
		}
	}
	return cols
}

// oracleAggPlan resolves GROUP BY keys and aggregate inputs by name, as the
// aggregate operator did at the start of every execution.
func oracleAggPlan(rel *oracleRelation, s *sql.SelectStmt) (*aggPlan, error) {
	groupIdxs := make([]int, len(s.GroupBy))
	for i, g := range s.GroupBy {
		idx, err := rel.resolve(g)
		if err != nil {
			return nil, err
		}
		groupIdxs[i] = idx
	}
	ap := &aggPlan{groupIdxs: groupIdxs}
	for _, x := range s.Exprs {
		ap.kinds = append(ap.kinds, x.Agg)
		col, slot := -1, 0
		if x.Agg == sql.AggNone {
			idx, err := rel.resolve(x.Col)
			if err != nil {
				return nil, err
			}
			found := false
			for gi, g := range groupIdxs {
				if g == idx {
					found, slot = true, gi
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("exec: column %s must appear in GROUP BY", x.Col)
			}
			col = idx
		} else {
			ap.nAggs++
			if x.Agg != sql.AggCount || x.Col.Name != "" {
				idx, err := rel.resolve(x.Col)
				if err != nil {
					return nil, err
				}
				col = idx
			}
		}
		ap.cols = append(ap.cols, col)
		ap.keySlot = append(ap.keySlot, slot)
	}
	return ap, nil
}

// oracleSortKeys resolves ORDER BY keys against the result's columns.
func oracleSortKeys(res *Result, keys []sql.OrderKey) ([]sortKey, error) {
	sks := make([]sortKey, len(keys))
	for i, k := range keys {
		pos := -1
		for ci, cn := range res.Cols {
			if cn == k.Col.String() || bareName(cn) == k.Col.Name {
				pos = ci
				break
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("exec: ORDER BY column %s not in select list", k.Col)
		}
		sks[i] = sortKey{col: pos, desc: k.Desc}
	}
	return sks, nil
}

// oracleExecute runs one parsed statement the way Engine.Execute did before
// statements were prepared, noting in rec (when non-nil) what its per-call
// analysis decided.
func oracleExecute(e *Engine, ctx *Ctx, stmt sql.Statement, params []storage.Value, rec *planView) (*Result, error) {
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		return oracleSelect(e, ctx, s, params, rec)
	case *sql.InsertStmt:
		return oracleInsert(e, ctx, s, params)
	case *sql.UpdateStmt:
		return oracleUpdate(e, ctx, s, params, rec)
	case *sql.DeleteStmt:
		return oracleDelete(e, ctx, s, params, rec)
	case *sql.CreateTableStmt, *sql.CreateIndexStmt:
		return e.executeDDL(stmt)
	case *sql.ExplainStmt:
		return oracleExplain(e, ctx, s, params)
	}
	return nil, fmt.Errorf("exec: unsupported statement %T", stmt)
}

func oracleSelect(e *Engine, ctx *Ctx, s *sql.SelectStmt, params []storage.Value, rec *planView) (*Result, error) {
	tbl, err := e.cat.Table(s.From.Name)
	if err != nil {
		return nil, err
	}
	if e.FuseSimpleSelects && tbl.Virtual == nil && len(s.Joins) == 0 &&
		len(s.GroupBy) == 0 && len(s.OrderBy) == 0 && !hasAggs(s) {
		return oracleFusedSelect(e, ctx, s, params, rec)
	}

	rel := oracleNewRelation(s.From.Binding(), tbl.Schema())
	preds, deferred, err := oracleCompilePreds(s.Where, rel, params)
	if err != nil {
		return nil, err
	}
	ap := oraclePlanAccess(tbl, preds)
	if tbl.Virtual != nil && len(s.Joins) == 0 && len(deferred) == 0 {
		ap.proj = oracleVirtualProjection(s, rel)
	}
	rec.addAccess(ap)
	rel.rows = oracleMatchRows(oracleRunScan(e, ctx, ap))

	for _, j := range s.Joins {
		rtbl, err := e.cat.Table(j.Table.Name)
		if err != nil {
			return nil, err
		}
		rrel := oracleNewRelation(j.Table.Binding(), rtbl.Schema())
		rpreds, stillDeferred, err := oracleCompilePreds(deferred, rrel, params)
		if err != nil {
			return nil, err
		}
		deferred = stillDeferred
		rap := oraclePlanAccess(rtbl, rpreds)
		rec.addAccess(rap)
		rrel.rows = oracleMatchRows(oracleRunScan(e, ctx, rap))

		out := oracleConcatRelations(rel, rrel)
		lcol, lerr := rel.resolve(j.LeftCol)
		rcol, rerr := rrel.resolve(j.RightCol)
		if lerr != nil || rerr != nil {
			lcol, lerr = rel.resolve(j.RightCol)
			rcol, rerr = rrel.resolve(j.LeftCol)
			if lerr != nil || rerr != nil {
				return nil, fmt.Errorf("exec: join columns %s / %s not resolvable", j.LeftCol, j.RightCol)
			}
		}
		out.rows = oracleHashJoin(e, ctx, rel.rows, rrel.rows, &joinPlan{lcol: lcol, rcol: rcol, width: out.width})
		rel = out
	}

	if len(deferred) > 0 {
		preds, still, err := oracleCompilePreds(deferred, rel, params)
		if err != nil {
			return nil, err
		}
		if len(still) > 0 {
			return nil, fmt.Errorf("exec: cannot resolve predicate on %s", still[0].Col)
		}
		rec.setPost(preds)
		rel.rows = oracleFilterRows(e, ctx, rel.rows, preds)
	}

	var res *Result
	if hasAggs(s) || len(s.GroupBy) > 0 {
		ap, err := oracleAggPlan(rel, s)
		if err != nil {
			return nil, err
		}
		var cols []string
		for _, x := range s.Exprs {
			cols = append(cols, selectColName(x))
		}
		rec.setProjection(cols, nil, nil)
		res = e.aggregate(ctx, rel.rows, ap, cols)
	} else {
		res, err = oracleProject(rel, s)
		if err != nil {
			return nil, err
		}
		rec.setProjection(oracleProjection(rel, s))
	}

	if len(s.OrderBy) > 0 {
		sks, err := oracleSortKeys(res, s.OrderBy)
		if err != nil {
			return nil, err
		}
		e.sortResult(ctx, res, sks)
	}
	if s.Limit >= 0 && len(res.Rows) > s.Limit {
		res.Rows = res.Rows[:s.Limit]
	}
	e.emitOutput(ctx, res)
	return res, nil
}

func oracleFusedSelect(e *Engine, ctx *Ctx, s *sql.SelectStmt, params []storage.Value, rec *planView) (*Result, error) {
	tbl, err := e.cat.Table(s.From.Name)
	if err != nil {
		return nil, err
	}
	rel := oracleNewRelation(s.From.Binding(), tbl.Heap.Schema())
	preds, deferred, err := oracleCompilePreds(s.Where, rel, params)
	if err != nil {
		return nil, err
	}
	if len(deferred) > 0 {
		return nil, fmt.Errorf("exec: cannot resolve predicate on %s", deferred[0].Col)
	}
	ap := oraclePlanAccess(tbl, preds)
	rec.addAccess(ap)

	pm := e.markers[OUFusedPipeline]
	if pm != nil {
		pm.Begin(ctx.Task)
	}
	ctx.fused = true
	matches := oracleRunScan(e, ctx, ap)
	rel.rows = oracleMatchRows(matches)
	res, perr := oracleProject(rel, s)
	if perr == nil {
		rec.setProjection(oracleProjection(rel, s))
		if s.Limit >= 0 && len(res.Rows) > s.Limit {
			res.Rows = res.Rows[:s.Limit]
		}
		e.emitOutput(ctx, res)
	}
	ctx.fused = false
	if perr != nil {
		if pm != nil {
			pm.End(ctx.Task)
			pm.Features(ctx.Task, 0, 0)
		}
		return nil, perr
	}
	if pm != nil {
		pm.End(ctx.Task)
		scanOU := OUSeqScan
		scanFeat := []uint64{uint64(tbl.Heap.NumSlots()), uint64(tbl.Heap.Schema().RowWidth())}
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

func oracleInsert(e *Engine, ctx *Ctx, s *sql.InsertStmt, params []storage.Value) (*Result, error) {
	tbl, err := e.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if tbl.Virtual != nil {
		return nil, fmt.Errorf("exec: table %q is a read-only virtual table", s.Table)
	}
	schema := tbl.Heap.Schema()

	positions := make([]int, 0, schema.NumColumns())
	if len(s.Columns) == 0 {
		for i := 0; i < schema.NumColumns(); i++ {
			positions = append(positions, i)
		}
	} else {
		for _, c := range s.Columns {
			p := schema.ColumnIndex(c)
			if p < 0 {
				return nil, fmt.Errorf("exec: table %q has no column %q", s.Table, c)
			}
			positions = append(positions, p)
		}
	}

	m := e.ouBegin(ctx, OUInsert)
	var bytes int64
	indexWork := 0
	for _, exprs := range s.Rows {
		if len(exprs) != len(positions) {
			ouEnd(ctx, m)
			ouFeatures(ctx, m, 0, 0, 0, 0)
			return nil, fmt.Errorf("exec: INSERT has %d values for %d columns", len(exprs), len(positions))
		}
		row := make(storage.Row, schema.NumColumns())
		for i, ex := range exprs {
			v, err := oracleEvalExpr(ex, nil, nil, params)
			if err != nil {
				ouEnd(ctx, m)
				ouFeatures(ctx, m, 0, 0, 0, 0)
				return nil, err
			}
			row[positions[i]] = coerce(v, schema.Column(positions[i]).Kind)
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
	n := len(s.Rows)
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

func oracleUpdate(e *Engine, ctx *Ctx, s *sql.UpdateStmt, params []storage.Value, rec *planView) (*Result, error) {
	tbl, err := e.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if tbl.Virtual != nil {
		return nil, fmt.Errorf("exec: table %q is a read-only virtual table", s.Table)
	}
	schema := tbl.Heap.Schema()
	rel := oracleNewRelation(s.Table, schema)
	preds, deferred, err := oracleCompilePreds(s.Where, rel, params)
	if err != nil {
		return nil, err
	}
	if len(deferred) > 0 {
		return nil, fmt.Errorf("exec: cannot resolve predicate on %s", deferred[0].Col)
	}
	setCols := make([]int, len(s.Sets))
	for i, set := range s.Sets {
		p := schema.ColumnIndex(set.Col)
		if p < 0 {
			return nil, fmt.Errorf("exec: table %q has no column %q", s.Table, set.Col)
		}
		setCols[i] = p
	}

	ap := oraclePlanAccess(tbl, preds)
	rec.addAccess(ap)
	matches := oracleRunScan(e, ctx, ap)

	m := e.ouBegin(ctx, OUUpdate)
	var bytes int64
	indexWork := 0
	for _, mt := range matches {
		newRow := mt.row.Clone()
		for i, set := range s.Sets {
			v, err := oracleEvalExpr(set.Val, mt.row, rel, params)
			if err != nil {
				ouEnd(ctx, m)
				ouFeatures(ctx, m, 0, 0, 0, 0)
				return nil, err
			}
			newRow[setCols[i]] = coerce(v, schema.Column(setCols[i]).Kind)
		}
		if err := ctx.Txn.Update(tbl.Heap, mt.tid, newRow); err != nil {
			ouEnd(ctx, m)
			ouFeatures(ctx, m, 0, 0, 0, 0)
			return nil, err
		}
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

func oracleDelete(e *Engine, ctx *Ctx, s *sql.DeleteStmt, params []storage.Value, rec *planView) (*Result, error) {
	tbl, err := e.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if tbl.Virtual != nil {
		return nil, fmt.Errorf("exec: table %q is a read-only virtual table", s.Table)
	}
	rel := oracleNewRelation(s.Table, tbl.Schema())
	preds, deferred, err := oracleCompilePreds(s.Where, rel, params)
	if err != nil {
		return nil, err
	}
	if len(deferred) > 0 {
		return nil, fmt.Errorf("exec: cannot resolve predicate on %s", deferred[0].Col)
	}
	ap := oraclePlanAccess(tbl, preds)
	rec.addAccess(ap)
	matches := oracleRunScan(e, ctx, ap)

	m := e.ouBegin(ctx, OUDelete)
	indexWork := 0
	for _, mt := range matches {
		if err := ctx.Txn.Delete(tbl.Heap, mt.tid); err != nil {
			ouEnd(ctx, m)
			ouFeatures(ctx, m, 0, 0, 0)
			return nil, err
		}
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

func oracleExplain(e *Engine, ctx *Ctx, s *sql.ExplainStmt, params []storage.Value) (*Result, error) {
	lines, err := oracleExplainPlan(e, s.Stmt, params)
	if err != nil {
		return nil, err
	}
	ctx.Task.Charge(sim.Work{
		Instructions: 2200 + 300*float64(len(lines)),
		BytesTouched: 512,
		AllocBytes:   int64(64 * len(lines)),
	})
	if s.Analyze {
		start := ctx.Task.Now()
		res, err := oracleExecute(e, ctx, s.Stmt, params, nil)
		if err != nil {
			return nil, err
		}
		elapsed := ctx.Task.Now() - start
		rows := len(res.Rows)
		if len(res.Cols) == 0 {
			rows = res.Affected
		}
		lines = append(lines,
			fmt.Sprintf("Actual rows: %d", rows),
			fmt.Sprintf("Execution time: %.3f ms", float64(elapsed)/1e6))
	}
	out := &Result{Cols: []string{"QUERY PLAN"}}
	for _, l := range lines {
		out.Rows = append(out.Rows, storage.Row{storage.NewString(l)})
	}
	return out, nil
}

// oracleExplainPlan re-plans the statement just to print it — the three
// planning arms EXPLAIN carried of its own.
func oracleExplainPlan(e *Engine, stmt sql.Statement, params []storage.Value) ([]string, error) {
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		tbl, err := e.cat.Table(s.From.Name)
		if err != nil {
			return nil, err
		}
		rel := oracleNewRelation(s.From.Binding(), tbl.Schema())
		preds, deferred, err := oracleCompilePreds(s.Where, rel, params)
		if err != nil {
			return nil, err
		}
		lines := []string{accessLine(oraclePlanAccess(tbl, preds))}
		for _, j := range s.Joins {
			rtbl, err := e.cat.Table(j.Table.Name)
			if err != nil {
				return nil, err
			}
			rrel := oracleNewRelation(j.Table.Binding(), rtbl.Schema())
			rpreds, still, err := oracleCompilePreds(deferred, rrel, params)
			if err != nil {
				return nil, err
			}
			deferred = still
			lines = append(lines,
				fmt.Sprintf("Hash Join on %s = %s", j.LeftCol, j.RightCol),
				"  -> "+accessLine(oraclePlanAccess(rtbl, rpreds)))
		}
		if len(s.GroupBy) > 0 || hasAggs(s) {
			lines = append(lines, fmt.Sprintf("Aggregate (groups=%d keys)", len(s.GroupBy)))
		}
		if len(s.OrderBy) > 0 {
			lines = append(lines, fmt.Sprintf("Sort (%d keys)", len(s.OrderBy)))
		}
		if s.Limit >= 0 {
			lines = append(lines, fmt.Sprintf("Limit %d", s.Limit))
		}
		return lines, nil
	case *sql.InsertStmt:
		return []string{fmt.Sprintf("Insert into %s (%d rows)", s.Table, len(s.Rows))}, nil
	case *sql.UpdateStmt:
		tbl, err := e.cat.Table(s.Table)
		if err != nil {
			return nil, err
		}
		rel := oracleNewRelation(s.Table, tbl.Schema())
		preds, _, err := oracleCompilePreds(s.Where, rel, params)
		if err != nil {
			return nil, err
		}
		return []string{
			fmt.Sprintf("Update %s (%d assignments)", s.Table, len(s.Sets)),
			"  -> " + accessLine(oraclePlanAccess(tbl, preds)),
		}, nil
	case *sql.DeleteStmt:
		tbl, err := e.cat.Table(s.Table)
		if err != nil {
			return nil, err
		}
		rel := oracleNewRelation(s.Table, tbl.Schema())
		preds, _, err := oracleCompilePreds(s.Where, rel, params)
		if err != nil {
			return nil, err
		}
		return []string{
			"Delete from " + s.Table,
			"  -> " + accessLine(oraclePlanAccess(tbl, preds)),
		}, nil
	}
	return nil, fmt.Errorf("exec: cannot explain %T", stmt)
}
