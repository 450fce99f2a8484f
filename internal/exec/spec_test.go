package exec

// A specification of the SQL the engine runs: a naive evaluator over model
// tables (the rows a snapshot sees, in slot order) that shares only the sql
// AST and storage.Value/Row with the code under test. Names resolve
// statically, so it rejects what Prepare rejects, with the same text,
// before it touches a row. Then each table's conjuncts filter its rows,
// nested loops join them on Value.Equal, and the rows are grouped
// (Value.Equal on every key), aggregated, projected and sorted, or DML
// edits the model. prepared_diff_test.go holds the engine to it.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"tscout/internal/sql"
	"tscout/internal/storage"
)

// specTable is one model table: its columns and the rows a snapshot sees.
type specTable struct {
	name    string
	cols    []string
	kinds   []storage.Kind
	virtual bool
	rows    []storage.Row
}

func (t *specTable) col(name string) int { return slices.Index(t.cols, name) }

// specDB is the model database. Rows are never written in place, so a copy
// of the row lists is a snapshot to roll back to.
type specDB map[string]*specTable

func (db specDB) clone() specDB {
	out := make(specDB, len(db))
	for name, t := range db {
		c := *t
		c.rows = slices.Clone(t.rows)
		out[name] = &c
	}
	return out
}

func (db specDB) table(name string, write bool) (*specTable, error) {
	t, ok := db[name]
	switch {
	case !ok:
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	case write && t.virtual:
		return nil, fmt.Errorf("exec: table %q is a read-only virtual table", name)
	}
	return t, nil
}

// specErr is how a statement fails: rejected before it runs, or at run time
// with one of texts — an UPDATE stops at the first failing row it meets,
// and which row that is depends on the scan order.
type specErr struct {
	rejected bool
	texts    []string
}

func (e *specErr) Error() string { return strings.Join(e.texts, " | ") }

// specResult is what a statement returns: rows sorted by keys, before
// LIMIT (which of tied rows it keeps is not specified); sums marks the SUM
// and AVG outputs; kept counts, per table with conjuncts, the rows passing
// them (filter.num_rows_out), and tables are those read. An EXPLAIN has
// lines, and inner if ANALYZE ran it.
type specResult struct {
	cols     []string
	rows     []storage.Row
	keys     []specKey
	limit    int
	affected int
	sums     []bool
	kept     []int
	tables   []*specTable
	lines    int
	inner    *specResult
}

type specKey struct {
	col  int
	desc bool
}

// outRows is how many rows the result holds after LIMIT, or for DML how
// many rows it affected.
func (r *specResult) outRows() int {
	if r.cols == nil {
		return r.affected
	}
	if r.limit >= 0 && r.limit < len(r.rows) {
		return r.limit
	}
	return len(r.rows)
}

// specScan is one table of a statement under its binding, at offset off of
// the joined row, with its conjuncts: those the table is the first, in
// FROM/JOIN order, to resolve alone. A conjunct's col is the table's own.
type specScan struct {
	t     *specTable
	bind  string
	off   int
	preds []specPred
}

type specPred struct {
	col int
	op  sql.CmpOp
	val sql.Expr
}

// resolve finds c among tables joined in order: qualified, in the last
// table so bound that has it; bare, in the one table that has it.
func resolve(tables []specScan, c sql.ColRef) (int, error) {
	pos := -1
	for _, s := range tables {
		i := s.t.col(c.Name)
		switch {
		case i < 0:
		case c.Table != "":
			if s.bind == c.Table {
				pos = s.off + i
			}
		case pos >= 0:
			return 0, fmt.Errorf("exec: ambiguous column %s", c.Name)
		default:
			pos = s.off + i
		}
	}
	if pos < 0 {
		return 0, fmt.Errorf("exec: unknown column %s", c)
	}
	return pos, nil
}

// assign gives every conjunct to its table.
func assign(scans []specScan, where []sql.Predicate) error {
	for _, p := range where {
		k := slices.IndexFunc(scans, func(s specScan) bool {
			_, err := resolve([]specScan{s}, p.Col)
			return err == nil
		})
		if k < 0 {
			return fmt.Errorf("exec: cannot resolve predicate on %s", p.Col)
		}
		i, _ := resolve(scans[k:k+1], p.Col)
		scans[k].preds = append(scans[k].preds, specPred{i - scans[k].off, p.Op, p.Val})
	}
	return nil
}

// specPlan is a statement with its names resolved: its tables; per JOIN
// its columns' positions in the joined row; per SELECT output its name,
// aggregate and the position it reads (-1 for COUNT(*)); the GROUP BY
// positions and sort keys; the table DML writes, the column each value or
// assignment writes, the assigned values; EXPLAIN's lines and statement.
type specPlan struct {
	stmt  sql.Statement
	scans []specScan
	on    [][2]int
	names []string
	aggs  []sql.AggKind
	out   []int
	agg   bool
	group []int
	keys  []specKey
	into  *specTable
	pos   []int
	sets  []sql.Expr
	lines int
	inner *specPlan
}

// resolveNames resolves stmt's names against db; the first that does not
// resolve rejects the statement.
func (db specDB) resolveNames(stmt sql.Statement) (*specPlan, error) {
	p := &specPlan{stmt: stmt}
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		refs := []sql.TableRef{s.From}
		for _, j := range s.Joins {
			refs = append(refs, j.Table)
		}
		off := 0
		for k, ref := range refs {
			t, err := db.table(ref.Name, false)
			if err != nil {
				return nil, err
			}
			p.scans = append(p.scans, specScan{t: t, bind: ref.Binding(), off: off})
			off += len(t.cols)
			if k == 0 {
				continue
			}
			// ON names a column of the tables before and one of this
			// table, in either order.
			j := s.Joins[k-1]
			l, lerr := resolve(p.scans[:k], j.LeftCol)
			r, rerr := resolve(p.scans[k:], j.RightCol)
			if lerr != nil || rerr != nil {
				l, lerr = resolve(p.scans[:k], j.RightCol)
				r, rerr = resolve(p.scans[k:], j.LeftCol)
				if lerr != nil || rerr != nil {
					return nil, fmt.Errorf("exec: join columns %s / %s not resolvable", j.LeftCol, j.RightCol)
				}
			}
			p.on = append(p.on, [2]int{l, r})
		}
		if err := assign(p.scans, s.Where); err != nil {
			return nil, err
		}
		p.agg = len(s.GroupBy) > 0 || slices.ContainsFunc(s.Exprs, func(x sql.SelectExpr) bool { return x.Agg != sql.AggNone })
		if err := p.selectList(s); err != nil {
			return nil, err
		}
		// ORDER BY names an output by its name, or by what follows the
		// name's last dot.
		for _, k := range s.OrderBy {
			i := slices.IndexFunc(p.names, func(n string) bool {
				return n == k.Col.String() || n[strings.LastIndexByte(n, '.')+1:] == k.Col.Name
			})
			if i < 0 {
				return nil, fmt.Errorf("exec: ORDER BY column %s not in select list", k.Col)
			}
			p.keys = append(p.keys, specKey{i, k.Desc})
		}
		p.lines = 1 + 2*len(s.Joins)
		for _, b := range []bool{p.agg, len(s.OrderBy) > 0, s.Limit >= 0} {
			if b {
				p.lines++
			}
		}
	case *sql.InsertStmt:
		t, err := db.table(s.Table, true)
		if err != nil {
			return nil, err
		}
		p.into, p.lines = t, 1
		names := s.Columns
		if len(names) == 0 {
			names = t.cols
		}
		for _, c := range names {
			if t.col(c) < 0 {
				return nil, fmt.Errorf("exec: table %q has no column %q", s.Table, c)
			}
			p.pos = append(p.pos, t.col(c))
		}
		if i := slices.IndexFunc(s.Rows, func(r []sql.Expr) bool { return len(r) != len(p.pos) }); i >= 0 {
			return nil, fmt.Errorf("exec: INSERT has %d values for %d columns", len(s.Rows[i]), len(p.pos))
		}
	case *sql.UpdateStmt:
		if err := db.dmlScan(p, s.Table, s.Where); err != nil {
			return nil, err
		}
		for _, set := range s.Sets {
			if p.into.col(set.Col) < 0 {
				return nil, fmt.Errorf("exec: table %q has no column %q", s.Table, set.Col)
			}
			p.pos, p.sets = append(p.pos, p.into.col(set.Col)), append(p.sets, set.Val)
		}
		for _, v := range p.sets {
			if err := columnsResolve(p.scans, v); err != nil {
				return nil, err
			}
		}
	case *sql.DeleteStmt:
		if err := db.dmlScan(p, s.Table, s.Where); err != nil {
			return nil, err
		}
	case *sql.ExplainStmt:
		// EXPLAIN binds the conjuncts of the plan it prints.
		inner, err := db.resolveNames(s.Stmt)
		if err != nil {
			return nil, err
		}
		p.inner, p.lines, p.scans = inner, inner.lines, inner.scans
	default:
		return nil, fmt.Errorf("exec: unsupported statement %T", stmt)
	}
	return p, nil
}

// dmlScan resolves an UPDATE's or DELETE's table and WHERE clause.
func (db specDB) dmlScan(p *specPlan, table string, where []sql.Predicate) error {
	t, err := db.table(table, true)
	if err != nil {
		return err
	}
	p.into, p.scans, p.lines = t, []specScan{{t: t, bind: table}}, 2
	return assign(p.scans, where)
}

// columnsResolve resolves every column an expression names.
func columnsResolve(scans []specScan, e sql.Expr) error {
	switch x := e.(type) {
	case sql.ColExpr:
		_, err := resolve(scans, x.Ref)
		return err
	case sql.Binary:
		if err := columnsResolve(scans, x.Left); err != nil {
			return err
		}
		return columnsResolve(scans, x.Right)
	}
	return nil
}

// selectList resolves the outputs. With aggregates or GROUP BY the keys
// come first, and a plain column must be one of them.
func (p *specPlan) selectList(s *sql.SelectStmt) error {
	for _, g := range s.GroupBy {
		i, err := resolve(p.scans, g)
		if err != nil {
			return err
		}
		p.group = append(p.group, i)
	}
	for _, x := range s.Exprs {
		if x.Star && !p.agg {
			for _, sc := range p.scans {
				for i, c := range sc.t.cols {
					p.names, p.aggs, p.out = append(p.names, sc.bind+"."+c), append(p.aggs, sql.AggNone), append(p.out, sc.off+i)
				}
			}
			continue
		}
		i, name := -1, x.Col.String()
		if x.Agg != sql.AggCount || x.Col.Name != "" {
			var err error
			if i, err = resolve(p.scans, x.Col); err != nil {
				return err
			}
		}
		if p.agg && x.Agg == sql.AggNone && !slices.Contains(p.group, i) {
			return fmt.Errorf("exec: column %s must appear in GROUP BY", x.Col)
		}
		if x.Agg != sql.AggNone {
			name = [...]string{"", "count", "sum", "avg", "min", "max"}[x.Agg] + "(" + cmp.Or(name, "*") + ")"
		}
		p.names, p.aggs, p.out = append(p.names, name), append(p.aggs, x.Agg), append(p.out, i)
	}
	return nil
}

// run executes stmt against db. Every failure is a *specErr; after a
// run-time one db may hold part of the statement's writes.
func (db specDB) run(stmt sql.Statement, params []storage.Value) (*specResult, error) {
	p, err := db.resolveNames(stmt)
	if err != nil {
		return nil, &specErr{rejected: true, texts: []string{err.Error()}}
	}
	res, err := p.run(params)
	if _, ok := err.(*specErr); err != nil && !ok {
		err = &specErr{texts: []string{err.Error()}}
	}
	return res, err
}

// run first evaluates every conjunct's operand, table by table in FROM/JOIN
// order and each table's in WHERE order — the first that fails fails the
// statement — and keeps each table's rows that pass its conjuncts, each a
// Value.Compare against the operand.
func (p *specPlan) run(params []storage.Value) (*specResult, error) {
	res := &specResult{limit: -1}
	pass := make([][]int, len(p.scans))
	for k, sc := range p.scans {
		var vals []storage.Value
		for _, pr := range sc.preds {
			v, err := eval(pr.val, params, nil)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		for i, row := range sc.t.rows {
			ok := true
			for n := 0; ok && n < len(sc.preds); n++ {
				c := row[sc.preds[n].col].Compare(vals[n])
				ok = [...]bool{c == 0, c != 0, c < 0, c <= 0, c > 0, c >= 0}[sc.preds[n].op]
			}
			if ok {
				pass[k] = append(pass[k], i)
			}
		}
		if len(sc.preds) > 0 {
			res.kept = append(res.kept, len(pass[k]))
		}
		res.tables = append(res.tables, sc.t)
	}
	switch s := p.stmt.(type) {
	case *sql.SelectStmt:
		p.selectRows(res, s, pass)
	case *sql.InsertStmt:
		for _, exprs := range s.Rows {
			row, err := p.write(make(storage.Row, len(p.into.cols)), exprs, params, nil)
			if err != nil {
				return nil, err
			}
			p.into.rows = append(p.into.rows, row)
		}
		res.affected = len(s.Rows)
	case *sql.UpdateStmt:
		// Assignments read the row as it was. A failing row fails the
		// statement, with the error of whichever the engine meets first.
		var fails []string
		for _, i := range pass[0] {
			old := p.into.rows[i]
			row, err := p.write(slices.Clone(old), p.sets, params, func(c sql.ColRef) storage.Value {
				at, _ := resolve(p.scans, c)
				return old[at]
			})
			if err != nil && !slices.Contains(fails, err.Error()) {
				fails = append(fails, err.Error())
			} else if err == nil {
				p.into.rows[i] = row
			}
		}
		if fails != nil {
			return nil, &specErr{texts: fails}
		}
		res.affected = len(pass[0])
	case *sql.DeleteStmt:
		var rows []storage.Row
		for i, r := range p.into.rows {
			if !slices.Contains(pass[0], i) {
				rows = append(rows, r)
			}
		}
		p.into.rows, res.affected = rows, len(pass[0])
	case *sql.ExplainStmt:
		res.cols, res.lines, res.kept = []string{"QUERY PLAN"}, p.lines, nil
		if s.Analyze {
			inner, err := p.inner.run(params)
			if err != nil {
				return nil, err
			}
			res.inner = inner
		}
	}
	return res, nil
}

// selectRows joins the passing rows by nested loops — every row so far with
// every passing row of the next table whose ON column is Equal — then
// aggregates or projects, and sorts.
func (p *specPlan) selectRows(res *specResult, s *sql.SelectStmt, pass [][]int) {
	joined := []storage.Row{nil}
	for k, sc := range p.scans {
		var next []storage.Row
		for _, l := range joined {
			for _, i := range pass[k] {
				r := sc.t.rows[i]
				if k == 0 || l[p.on[k-1][0]].Compare(r[p.on[k-1][1]-sc.off]) == 0 {
					next = append(next, append(slices.Clone(l), r...))
				}
			}
		}
		joined = next
	}
	res.cols, res.keys, res.limit = p.names, p.keys, s.Limit
	for _, a := range p.aggs {
		res.sums = append(res.sums, a == sql.AggSum || a == sql.AggAvg)
	}
	if p.agg {
		res.rows = p.aggregate(joined)
	} else {
		for _, r := range joined {
			out := make(storage.Row, len(p.out))
			for i, c := range p.out {
				out[i] = r[c]
			}
			res.rows = append(res.rows, out)
		}
	}
	sort.SliceStable(res.rows, func(a, b int) bool {
		for _, k := range p.keys {
			if c := res.rows[a][k.col].Compare(res.rows[b][k.col]); c != 0 {
				return (c < 0) != k.desc
			}
		}
		return false
	})
}

// aggregate puts rows whose keys are all Equal in one group — every row in
// one group, even none, when there is no GROUP BY — and computes each
// output per group. Aggregates skip NULLs. SUM is a FLOAT, 0 over nothing;
// AVG, MIN and MAX are NULL over nothing; MIN and MAX keep the first of
// equal values.
func (p *specPlan) aggregate(rows []storage.Row) []storage.Row {
	var groups [][]storage.Row
	for _, r := range rows {
		g := slices.IndexFunc(groups, func(g []storage.Row) bool {
			return !slices.ContainsFunc(p.group, func(c int) bool { return g[0][c].Compare(r[c]) != 0 })
		})
		if g < 0 {
			g, groups = len(groups), append(groups, nil)
		}
		groups[g] = append(groups[g], r)
	}
	if len(p.group) == 0 && len(groups) == 0 {
		groups = append(groups, nil)
	}
	var out []storage.Row
	for _, g := range groups {
		row := make(storage.Row, len(p.aggs))
		for i, a := range p.aggs {
			var vals []storage.Value
			sum := 0.0
			for _, r := range g {
				if p.out[i] >= 0 && !r[p.out[i]].IsNull() {
					vals, sum = append(vals, r[p.out[i]]), sum+r[p.out[i]].AsFloat()
				}
			}
			switch {
			case a == sql.AggNone:
				row[i] = g[0][p.out[i]]
			case a == sql.AggCount && p.out[i] < 0:
				row[i] = storage.NewInt(int64(len(g)))
			case a == sql.AggCount:
				row[i] = storage.NewInt(int64(len(vals)))
			case a == sql.AggSum:
				row[i] = storage.NewFloat(sum)
			case len(vals) == 0:
				row[i] = storage.Null()
			case a == sql.AggAvg:
				row[i] = storage.NewFloat(sum / float64(len(vals)))
			default:
				row[i] = vals[0]
				for _, v := range vals[1:] {
					if c := v.Compare(row[i]); (a == sql.AggMin && c < 0) || (a == sql.AggMax && c > 0) {
						row[i] = v
					}
				}
			}
		}
		out = append(out, row)
	}
	return out
}

// eval evaluates an operand. col reads a column of the row at hand; it is
// nil where there is none.
func eval(e sql.Expr, params []storage.Value, col func(sql.ColRef) storage.Value) (storage.Value, error) {
	switch x := e.(type) {
	case sql.Literal:
		return x.Val, nil
	case sql.Param:
		if x.N < 1 || x.N > len(params) {
			return storage.Value{}, fmt.Errorf("exec: parameter $%d not bound (%d given)", x.N, len(params))
		}
		return params[x.N-1], nil
	case sql.ColExpr:
		if col == nil {
			return storage.Value{}, fmt.Errorf("exec: column %s in a context without input rows", x.Ref)
		}
		return col(x.Ref), nil
	case sql.Binary:
		l, err := eval(x.Left, params, col)
		if err != nil {
			return l, err
		}
		r, err := eval(x.Right, params, col)
		if err != nil {
			return r, err
		}
		return arith(l, x.Op, r)
	}
	return storage.Value{}, fmt.Errorf("exec: unsupported expression %T", e)
}

// arith: with a string on either side, + joins the two texts and nothing
// else applies; with a FLOAT on either side the arithmetic is float64's,
// otherwise int64's, NULL counting as 0 either way; division by zero is
// NULL.
func arith(l storage.Value, op byte, r storage.Value) (storage.Value, error) {
	switch {
	case l.Kind() == storage.KindString || r.Kind() == storage.KindString:
		if op == '+' {
			return storage.NewString(l.String() + r.String()), nil
		}
		return storage.Value{}, fmt.Errorf("exec: operator %c on strings", op)
	case strings.IndexByte("+-*/", op) < 0:
		return storage.Value{}, fmt.Errorf("exec: unknown operator %c", op)
	case op == '/' && r.AsFloat() == 0:
		return storage.Null(), nil
	case l.Kind() == storage.KindFloat || r.Kind() == storage.KindFloat:
		a, b := l.AsFloat(), r.AsFloat()
		return storage.NewFloat(map[byte]float64{'+': a + b, '-': a - b, '*': a * b, '/': a / b}[op]), nil
	case op == '/':
		return storage.NewInt(l.AsInt() / r.AsInt()), nil
	}
	a, b := l.AsInt(), r.AsInt()
	return storage.NewInt(map[byte]int64{'+': a + b, '-': a - b, '*': a * b}[op]), nil
}

// write evaluates exprs into row's columns pos, a number cast to a numeric
// column's kind (FLOAT to INT by truncation), and admits the row if every
// cell is NULL or of its column's kind.
func (p *specPlan) write(row storage.Row, exprs []sql.Expr, params []storage.Value, col func(sql.ColRef) storage.Value) (storage.Row, error) {
	t := p.into
	for i, ex := range exprs {
		v, err := eval(ex, params, col)
		if err != nil {
			return nil, err
		}
		switch k := t.kinds[p.pos[i]]; {
		case v.Kind() == storage.KindInt && k == storage.KindFloat:
			v = storage.NewFloat(v.AsFloat())
		case v.Kind() == storage.KindFloat && k == storage.KindInt:
			v = storage.NewInt(v.AsInt())
		}
		row[p.pos[i]] = v
	}
	for i, v := range row {
		if k := v.Kind(); k != storage.KindNull && k != t.kinds[i] {
			return nil, fmt.Errorf("storage: column %q expects %v, got %v", t.cols[i], t.kinds[i], k)
		}
	}
	return row, nil
}
