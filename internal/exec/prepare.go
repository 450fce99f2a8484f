package exec

import (
	"fmt"

	"tscout/internal/catalog"
	"tscout/internal/sql"
	"tscout/internal/storage"
)

// Prepared is a statement analyzed once against one catalog version:
// everything that does not depend on the parameter values — table handles,
// name resolution, predicate placement, the access-path shape, projection
// and aggregate positions — is decided here, and Run only binds values and
// drives the operators. A Prepared is immutable after Prepare and may be
// run any number of times; per-execution state never lives in it.
type Prepared struct {
	stmt    sql.Statement
	version uint64
	plan    plan
}

// plan is one statement kind's analyzed form.
type plan interface {
	run(e *Engine, ctx *Ctx, params []storage.Value) (*Result, error)
}

// explainable plans can render themselves for EXPLAIN. describe binds the
// access paths (an index probe's key is part of its line), so it reports
// the binding errors run would.
type explainable interface {
	describe(ctx *Ctx, params []storage.Value) ([]string, error)
}

// Prepare analyzes stmt against the catalog as it is now. It charges no
// virtual time and fires no marker: operators charge for data volumes,
// never for analysis. Name-resolution failures (unknown table or column,
// unresolvable predicate, INSERT arity, GROUP BY and ORDER BY violations)
// are reported here, before the statement has done any work; binding
// failures (an unbound $n) are left to Run.
func (e *Engine) Prepare(stmt sql.Statement) (*Prepared, error) {
	p := &Prepared{stmt: stmt, version: e.cat.Version()}
	var err error
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		p.plan, err = e.analyzeSelect(s)
	case *sql.InsertStmt:
		p.plan, err = e.analyzeInsert(s)
	case *sql.UpdateStmt:
		p.plan, err = e.analyzeUpdate(s)
	case *sql.DeleteStmt:
		p.plan, err = e.analyzeDelete(s)
	case *sql.CreateTableStmt, *sql.CreateIndexStmt:
		p.plan = ddlPlan{stmt: stmt}
	case *sql.ExplainStmt:
		var inner *Prepared
		if inner, err = e.Prepare(s.Stmt); err == nil {
			p.plan = &explainPlan{analyze: s.Analyze, inner: inner}
		}
	default:
		err = fmt.Errorf("exec: unsupported statement %T", stmt)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Stale reports whether the catalog has changed since p was analyzed (a
// table, index or virtual table was added): its plan may no longer be the
// one Prepare would choose, and the caller must Prepare again.
func (e *Engine) Stale(p *Prepared) bool { return p.version != e.cat.Version() }

// Run executes a prepared statement with the given parameter values
// (1-based $n binding). p must not be Stale. The caller is responsible for
// the per-query TScout sampling event (ts.BeginEvent) and for committing
// the transaction.
func (e *Engine) Run(ctx *Ctx, p *Prepared, params []storage.Value) (*Result, error) {
	ctx.resetScratch()
	res, err := p.plan.run(e, ctx, params)
	if e.observe != nil {
		e.observe(ctx, p, params, res, err)
	}
	return res, err
}

// predPlan is a WHERE conjunct resolved against a relation: the column's
// row position, the operator, and where the operand comes from.
type predPlan struct {
	col int
	op  sql.CmpOp
	val scalar
}

// predSet is the conjuncts that apply at one point of the plan, in stable
// column order (the order scans and filters evaluate them in).
type predSet struct {
	preds []predPlan
	// evalOrder lists preds' indexes in WHERE order, the order operands are
	// bound in.
	evalOrder []int
}

// bind evaluates the operands against params — in WHERE order, so the
// first failing operand is the one the statement names first — into
// predicates cut from ctx's arena.
func (ps *predSet) bind(ctx *Ctx, params []storage.Value) ([]compiledPred, error) {
	if len(ps.preds) == 0 {
		return nil, nil
	}
	out := ctx.allocPreds(len(ps.preds))
	for _, i := range ps.evalOrder {
		p := &ps.preds[i]
		v, err := p.val.eval(nil, params)
		if err != nil {
			return nil, err
		}
		out[i] = compiledPred{col: p.col, op: p.op, val: v}
	}
	return out, nil
}

// resolvePreds resolves WHERE conjuncts against rel, deferring those that
// name columns rel does not have (or has ambiguously) to a later relation.
func resolvePreds(preds []sql.Predicate, rel *relation) (predSet, []sql.Predicate, error) {
	var ps predSet
	var deferred []sql.Predicate
	for _, p := range preds {
		idx, rerr := rel.resolve(p.Col)
		if rerr != nil {
			deferred = append(deferred, p)
			continue
		}
		val, err := compileScalar(p.Val, nil)
		if err != nil {
			return predSet{}, nil, err
		}
		ps.preds = append(ps.preds, predPlan{col: idx, op: p.Op, val: val})
	}
	// Sort a permutation by column, stably (an insertion sort: a WHERE
	// clause is a handful of conjuncts): perm[k] is the WHERE position of
	// the k-th predicate in column order.
	perm := make([]int, len(ps.preds))
	for i := range perm {
		k := i
		for ; k > 0 && ps.preds[perm[k-1]].col > ps.preds[i].col; k-- {
			perm[k] = perm[k-1]
		}
		perm[k] = i
	}
	sorted := make([]predPlan, len(perm))
	ps.evalOrder = make([]int, len(perm))
	for k, w := range perm {
		sorted[k] = ps.preds[w]
		ps.evalOrder[w] = k
	}
	ps.preds = sorted
	return ps, deferred, nil
}

// accessPlan is the parameter-independent shape of reading one table: the
// index its equality columns select, which predicates supply that index's
// key, and every predicate to re-check on the rows that come back.
type accessPlan struct {
	table *catalog.Table
	index *catalog.Index // nil means sequential scan
	// exact means every key column is covered (a point probe); otherwise
	// keyPreds cover a leading prefix (a B+Tree range).
	exact bool
	// keyPreds indexes preds: the equality supplying each covered key
	// column, major first.
	keyPreds []int
	// lower and upper index preds, or are -1: on a prefix range, the first
	// > or >= and the first < or <= on the key column after the prefix,
	// whose INT values narrow the range.
	lower, upper int
	predSet
	// proj lists the schema columns the query reads (virtual tables only);
	// nil means all.
	proj []int
}

// chooseAccess picks the cheapest access path for preds on tbl: a full-key
// index probe (unique first), then a leading-prefix B+Tree range, the one
// whose equalities cover the most key columns, then a sequential scan;
// between equals the first index wins. Only which columns carry an
// equality matters, never the values, so the choice holds for every
// execution. A prefix range takes its bounds from the range predicates on
// the next key column.
func chooseAccess(tbl *catalog.Table, ps predSet) accessPlan {
	// The first equality on a column supplies its key value.
	firstEq := func(col int) int {
		for i, p := range ps.preds {
			if p.col == col && p.op == sql.OpEq {
				return i
			}
		}
		return -1
	}
	// Every predicate stays as a residual re-check, whatever the index
	// covers: a key is packed into clamped bits or hashed, so different
	// values can share one, and the filter OU's features count them all.
	best := accessPlan{table: tbl, predSet: ps, lower: -1, upper: -1}
	bestScore := 0 // 0 = seqscan, 1 = prefix, 2 = full, 3 = full unique
	for _, ix := range tbl.Indexes {
		var keyPreds []int
		for _, kc := range ix.KeyCols {
			i := firstEq(kc)
			if i < 0 {
				break
			}
			keyPreds = append(keyPreds, i)
		}
		covered := len(keyPreds)
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
			continue // hash indexes cannot serve prefix ranges
		}
		// A deeper prefix narrows the walk to the rows its extra columns
		// select.
		if score < bestScore || (score == bestScore && (score != 1 || covered <= len(best.keyPreds))) {
			continue
		}
		best.index, best.exact, best.keyPreds = ix, full, keyPreds
		best.lower, best.upper = -1, -1
		if !full {
			best.lower, best.upper = rangeBounds(ps.preds, ix.KeyCols[covered])
		}
		bestScore = score
	}
	return best
}

// rangeBounds returns the indexes in preds of the first lower (> or >=)
// and the first upper (< or <=) bound on col, each -1 if there is none.
func rangeBounds(preds []predPlan, col int) (lower, upper int) {
	lower, upper = -1, -1
	for i, p := range preds {
		if p.col != col {
			continue
		}
		switch {
		case lower < 0 && (p.op == sql.OpGt || p.op == sql.OpGe):
			lower = i
		case upper < 0 && (p.op == sql.OpLt || p.op == sql.OpLe):
			upper = i
		}
	}
	return lower, upper
}

// selectPlan is an analyzed SELECT.
type selectPlan struct {
	from  accessPlan
	joins []joinPlan
	// post holds the predicates that needed the joined relation.
	post predSet
	// agg is set for aggregating selects; otherwise projIdxs lists the
	// input position of each output column.
	agg      *aggPlan
	projIdxs []int
	// countJoin says the last join only counts its rows: the aggregate only
	// counts (aggPlan.countOnly) and no post-join predicate reads the rows.
	countJoin bool
	// cols names the output columns. Every Result of the plan shares it.
	cols  []string
	sort  []sortKey
	limit int // -1 when absent
}

// joinPlan is one analyzed JOIN clause.
type joinPlan struct {
	clause sql.JoinClause
	access accessPlan
	// lcol is the join column's position in the rows joined so far, rcol in
	// the joined table's rows; width is the joined row's estimated bytes.
	lcol, rcol int
	width      int64
}

type sortKey struct {
	col  int
	desc bool
}

func (e *Engine) analyzeSelect(s *sql.SelectStmt) (*selectPlan, error) {
	tbl, err := e.cat.Table(s.From.Name)
	if err != nil {
		return nil, err
	}
	aggregates := hasAggs(s) || len(s.GroupBy) > 0
	sp := &selectPlan{limit: s.Limit}
	tables := []boundTable{{s.From.Binding(), tbl.Schema()}}
	rel := newRelation(tables...)
	preds, deferred, err := resolvePreds(s.Where, rel)
	if err != nil {
		return nil, err
	}
	sp.from = chooseAccess(tbl, preds)
	if tbl.Virtual != nil && len(s.Joins) == 0 && len(deferred) == 0 {
		sp.from.proj = virtualProjection(s, rel)
	}

	// Joins: push deferred predicates to the joined table when possible.
	for _, j := range s.Joins {
		rtbl, err := e.cat.Table(j.Table.Name)
		if err != nil {
			return nil, err
		}
		right := boundTable{j.Table.Binding(), rtbl.Schema()}
		rrel := newRelation(right)
		rpreds, still, err := resolvePreds(deferred, rrel)
		if err != nil {
			return nil, err
		}
		deferred = still
		// Resolve which side each join column belongs to; the ON clause may
		// name them in either order.
		lcol, lerr := rel.resolve(j.LeftCol)
		rcol, rerr := rrel.resolve(j.RightCol)
		if lerr != nil || rerr != nil {
			lcol, lerr = rel.resolve(j.RightCol)
			rcol, rerr = rrel.resolve(j.LeftCol)
			if lerr != nil || rerr != nil {
				return nil, fmt.Errorf("exec: join columns %s / %s not resolvable", j.LeftCol, j.RightCol)
			}
		}
		tables = append(tables, right)
		rel = newRelation(tables...)
		sp.joins = append(sp.joins, joinPlan{
			clause: j, access: chooseAccess(rtbl, rpreds),
			lcol: lcol, rcol: rcol, width: rel.width(),
		})
	}

	// Whatever is still deferred needs the combined relation.
	if len(deferred) > 0 {
		post, still, err := resolvePreds(deferred, rel)
		if err != nil {
			return nil, err
		}
		if len(still) > 0 {
			return nil, fmt.Errorf("exec: cannot resolve predicate on %s", still[0].Col)
		}
		sp.post = post
	}

	if aggregates {
		if sp.agg, err = analyzeAggregate(s, rel); err != nil {
			return nil, err
		}
		for _, x := range s.Exprs {
			sp.cols = append(sp.cols, selectColName(x))
		}
		sp.countJoin = sp.agg.countOnly && len(sp.joins) > 0 && len(sp.post.preds) == 0
	} else if err := sp.analyzeProjection(s, rel); err != nil {
		return nil, err
	}

	// ORDER BY keys resolve against the output columns: the full rendered
	// name first, then the bare column name.
	for _, k := range s.OrderBy {
		pos := -1
		for ci, cn := range sp.cols {
			if cn == k.Col.String() || bareName(cn) == k.Col.Name {
				pos = ci
				break
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("exec: ORDER BY column %s not in select list", k.Col)
		}
		sp.sort = append(sp.sort, sortKey{col: pos, desc: k.Desc})
	}
	return sp, nil
}

// analyzeProjection resolves a non-aggregating select list.
func (sp *selectPlan) analyzeProjection(s *sql.SelectStmt, rel *relation) error {
	for _, x := range s.Exprs {
		if x.Star {
			for i, qc := range rel.qualifiedNames() {
				sp.cols = append(sp.cols, qc)
				sp.projIdxs = append(sp.projIdxs, i)
			}
			continue
		}
		i, err := rel.resolve(x.Col)
		if err != nil {
			return err
		}
		sp.cols = append(sp.cols, x.Col.String())
		sp.projIdxs = append(sp.projIdxs, i)
	}
	return nil
}

// virtualProjection lists the schema columns a single-table select needs
// from a virtual scan, or nil (read everything) when a star or an
// unresolvable reference makes the set unknowable.
func virtualProjection(s *sql.SelectStmt, rel *relation) []int {
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
			continue // COUNT(*) reads no column
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
	// Clipped: the scan appends the residual columns to its own copy.
	return cols[:len(cols):len(cols)]
}

func hasAggs(s *sql.SelectStmt) bool {
	for _, x := range s.Exprs {
		if x.Agg != sql.AggNone {
			return true
		}
	}
	return false
}

// aggPlan is an analyzed GROUP BY / aggregate select list.
type aggPlan struct {
	groupIdxs []int
	// Per output expression: its aggregate, the input column it reads (-1
	// for COUNT(*)), and for a plain grouping column the group-key slot
	// that holds its value.
	kinds   []sql.AggKind
	cols    []int
	keySlot []int
	nAggs   int
	// countOnly says every output is COUNT(*) and there is no GROUP BY: the
	// aggregate reads only the number of its input rows.
	countOnly bool
}

func analyzeAggregate(s *sql.SelectStmt, rel *relation) (*aggPlan, error) {
	ap := &aggPlan{
		groupIdxs: make([]int, len(s.GroupBy)),
		kinds:     make([]sql.AggKind, len(s.Exprs)),
		cols:      make([]int, len(s.Exprs)),
		keySlot:   make([]int, len(s.Exprs)),
	}
	for i, g := range s.GroupBy {
		idx, err := rel.resolve(g)
		if err != nil {
			return nil, err
		}
		ap.groupIdxs[i] = idx
	}
	for i, x := range s.Exprs {
		ap.kinds[i] = x.Agg
		ap.cols[i] = -1
		if x.Agg == sql.AggNone {
			// Non-aggregated outputs must be grouping keys.
			idx, err := rel.resolve(x.Col)
			if err != nil {
				return nil, err
			}
			slot := -1
			for gi, g := range ap.groupIdxs {
				if g == idx {
					slot = gi
					break
				}
			}
			if slot < 0 {
				return nil, fmt.Errorf("exec: column %s must appear in GROUP BY", x.Col)
			}
			ap.cols[i], ap.keySlot[i] = idx, slot
			continue
		}
		ap.nAggs++
		if x.Agg != sql.AggCount || x.Col.Name != "" {
			idx, err := rel.resolve(x.Col)
			if err != nil {
				return nil, err
			}
			ap.cols[i] = idx
		}
	}
	ap.countOnly = len(ap.groupIdxs) == 0
	for i, kind := range ap.kinds {
		if kind != sql.AggCount || ap.cols[i] >= 0 {
			ap.countOnly = false
		}
	}
	return ap, nil
}

func selectColName(x sql.SelectExpr) string {
	switch x.Agg {
	case sql.AggNone:
		return x.Col.String()
	case sql.AggCount:
		if x.Col.Name == "" {
			return "count(*)"
		}
		return "count(" + x.Col.String() + ")"
	case sql.AggSum:
		return "sum(" + x.Col.String() + ")"
	case sql.AggAvg:
		return "avg(" + x.Col.String() + ")"
	case sql.AggMin:
		return "min(" + x.Col.String() + ")"
	case sql.AggMax:
		return "max(" + x.Col.String() + ")"
	}
	return "?"
}

// insertPlan is an analyzed INSERT ... VALUES.
type insertPlan struct {
	table *catalog.Table
	// positions maps each statement column to its schema position, kinds to
	// that column's kind (for the implicit numeric casts).
	positions []int
	kinds     []storage.Kind
	rows      [][]scalar
}

func (e *Engine) analyzeInsert(s *sql.InsertStmt) (*insertPlan, error) {
	tbl, err := e.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if tbl.Virtual != nil {
		return nil, fmt.Errorf("exec: table %q is a read-only virtual table", s.Table)
	}
	schema := tbl.Heap.Schema()
	ip := &insertPlan{table: tbl}
	if len(s.Columns) == 0 {
		for i := 0; i < schema.NumColumns(); i++ {
			ip.positions = append(ip.positions, i)
		}
	} else {
		for _, c := range s.Columns {
			p := schema.ColumnIndex(c)
			if p < 0 {
				return nil, fmt.Errorf("exec: table %q has no column %q", s.Table, c)
			}
			ip.positions = append(ip.positions, p)
		}
	}
	for _, p := range ip.positions {
		ip.kinds = append(ip.kinds, schema.Column(p).Kind)
	}
	for _, exprs := range s.Rows {
		if len(exprs) != len(ip.positions) {
			return nil, fmt.Errorf("exec: INSERT has %d values for %d columns", len(exprs), len(ip.positions))
		}
		row := make([]scalar, len(exprs))
		for i, ex := range exprs {
			if row[i], err = compileScalar(ex, nil); err != nil {
				return nil, err
			}
		}
		ip.rows = append(ip.rows, row)
	}
	return ip, nil
}

// updatePlan is an analyzed UPDATE.
type updatePlan struct {
	access accessPlan
	// Per assignment: the schema position written, its kind, and the value
	// expression with its column references resolved against the table.
	setCols  []int
	setKinds []storage.Kind
	setVals  []scalar
}

// analyzeDMLScan resolves the WHERE clause of an UPDATE or DELETE, whose
// predicates must all be on the one table.
func (e *Engine) analyzeDMLScan(table string, where []sql.Predicate) (accessPlan, *relation, error) {
	tbl, err := e.cat.Table(table)
	if err != nil {
		return accessPlan{}, nil, err
	}
	if tbl.Virtual != nil {
		return accessPlan{}, nil, fmt.Errorf("exec: table %q is a read-only virtual table", table)
	}
	rel := newRelation(boundTable{table, tbl.Heap.Schema()})
	preds, deferred, err := resolvePreds(where, rel)
	if err != nil {
		return accessPlan{}, nil, err
	}
	if len(deferred) > 0 {
		return accessPlan{}, nil, fmt.Errorf("exec: cannot resolve predicate on %s", deferred[0].Col)
	}
	return chooseAccess(tbl, preds), rel, nil
}

func (e *Engine) analyzeUpdate(s *sql.UpdateStmt) (*updatePlan, error) {
	access, rel, err := e.analyzeDMLScan(s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	schema := access.table.Heap.Schema()
	up := &updatePlan{
		access:   access,
		setCols:  make([]int, len(s.Sets)),
		setKinds: make([]storage.Kind, len(s.Sets)),
		setVals:  make([]scalar, len(s.Sets)),
	}
	for i, set := range s.Sets {
		p := schema.ColumnIndex(set.Col)
		if p < 0 {
			return nil, fmt.Errorf("exec: table %q has no column %q", s.Table, set.Col)
		}
		up.setCols[i], up.setKinds[i] = p, schema.Column(p).Kind
	}
	for i, set := range s.Sets {
		if up.setVals[i], err = compileScalar(set.Val, rel); err != nil {
			return nil, err
		}
	}
	return up, nil
}

// deletePlan is an analyzed DELETE.
type deletePlan struct {
	access accessPlan
}

func (e *Engine) analyzeDelete(s *sql.DeleteStmt) (*deletePlan, error) {
	access, _, err := e.analyzeDMLScan(s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	return &deletePlan{access: access}, nil
}

// ddlPlan defers a CREATE TABLE / CREATE INDEX whole to run: DDL has
// nothing to analyze ahead of time, and changes the catalog it would be
// analyzed against.
type ddlPlan struct{ stmt sql.Statement }

func (d ddlPlan) run(e *Engine, _ *Ctx, _ []storage.Value) (*Result, error) {
	return e.executeDDL(d.stmt)
}
