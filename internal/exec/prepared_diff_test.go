package exec

// The harness that holds Prepare/Run to spec_test.go: each statement runs
// on a database and through the spec on a model of its tables, and any
// difference fails — in whether analysis rejects it and with what text, in
// the run-time error, in the result, or (instrumented) in the OU features
// the spec states. A SELECT that ran is then partitioned (TLP) to check the
// engine against itself on every access path. genStatement is the small
// SQL grammar the seeded test and FuzzPreparedDifferential draw from.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tscout/internal/catalog"
	"tscout/internal/sql"
	"tscout/internal/storage"
	"tscout/internal/tscout"
	"tscout/internal/txn"
)

// memVirtual is a virtual table over in-memory rows that honours the
// projection (unprojected columns come back NULL) and ignores the
// predicate hints, as the interface allows.
type memVirtual struct {
	schema *storage.Schema
	rows   []storage.Row
}

func (m *memVirtual) Schema() *storage.Schema { return m.schema }

func (m *memVirtual) Scan(proj []int, _ []catalog.VirtualPred, fn func(storage.Row) bool) catalog.VirtualScanStats {
	st := catalog.VirtualScanStats{BlocksRead: 1}
	for _, row := range m.rows {
		out := row
		if proj != nil {
			out = make(storage.Row, len(row))
			for _, c := range proj {
				out[c] = row[c]
			}
		}
		st.Rows++
		if !fn(out) {
			break
		}
	}
	return st
}

// newDiffDB builds the harness's database: three heap tables with a unique
// B+Tree, a non-unique two-column B+Tree (prefix ranges), a hash index and
// a unique hash index between them, plus a virtual table. Column names
// repeat across tables (id, grp, qty) so bare references in a join can be
// ambiguous.
func newDiffDB(t testing.TB, instrumented, fuse bool) *testDB {
	t.Helper()
	db := newEmptyTestDB(t, instrumented)
	db.engine.FuseSimpleSelects = fuse
	rows := func(n int, row func(i int) string) string {
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, row(i))
		}
		return strings.Join(out, ", ")
	}
	for _, q := range []string{
		"CREATE TABLE items (id INT PRIMARY KEY, grp INT, sub INT, qty INT, price FLOAT, name VARCHAR(16))",
		"CREATE INDEX items_grp ON items (grp, sub)",
		"CREATE INDEX items_name ON items (name) USING HASH",
		"CREATE TABLE orders (id INT PRIMARY KEY, item_id INT, qty INT, note VARCHAR(16))",
		"CREATE INDEX orders_item ON orders (item_id)",
		"CREATE TABLE regions (rid INT PRIMARY KEY, grp INT, label VARCHAR(16))",
		"CREATE UNIQUE INDEX regions_label ON regions (label) USING HASH",
		"INSERT INTO items VALUES " + rows(60, func(i int) string {
			return fmt.Sprintf("(%d, %d, %d, %d, %g, 'n%d')", i, i%6, i%4, i%10, float64(i)*1.5, i%7)
		}),
		"INSERT INTO orders VALUES " + rows(40, func(i int) string { return fmt.Sprintf("(%d, %d, %d, 'o%d')", i, i%30, i%5, i%3) }),
		"INSERT INTO regions VALUES " + rows(6, func(i int) string { return fmt.Sprintf("(%d, %d, 'r%d')", i, i, i) }),
	} {
		if _, err := db.tryRun(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	vt := &memVirtual{schema: storage.MustSchema(storage.Column{Name: "a", Kind: storage.KindInt},
		storage.Column{Name: "b", Kind: storage.KindInt}, storage.Column{Name: "c", Kind: storage.KindString})}
	for i := int64(0); i < 24; i++ {
		vt.rows = append(vt.rows, storage.Row{storage.NewInt(i), storage.NewInt(i % 4), storage.NewString(fmt.Sprintf("v%d", i%3))})
	}
	if _, err := db.cat.MountVirtual("vt", vt); err != nil {
		t.Fatal(err)
	}
	if instrumented {
		db.drainPoints(t)
	}
	return db
}

// specFrom reads every table of cat, as a new snapshot of mgr sees it, into
// a model.
func specFrom(cat *catalog.Catalog, mgr *txn.Manager) specDB {
	tx, db := mgr.Begin(), specDB{}
	defer tx.Abort()
	for _, name := range cat.TableNames() {
		tbl, _ := cat.Table(name)
		st := &specTable{name: name, virtual: tbl.Virtual != nil}
		for _, c := range tbl.Schema().Columns() {
			st.cols, st.kinds = append(st.cols, c.Name), append(st.kinds, c.Kind)
		}
		if tbl.Virtual != nil {
			tbl.Virtual.Scan(nil, nil, func(r storage.Row) bool { st.rows = append(st.rows, r); return true })
		}
		for id := 0; tbl.Heap != nil && id < tbl.Heap.NumSlots(); id++ {
			if row, _ := tx.Read(tbl.Heap, storage.TupleID(id)); row != nil {
				st.rows = append(st.rows, row)
			}
		}
		db[name] = st
	}
	return db
}

// compare runs stmt through Prepare and Run in ctx and through the spec on
// model, failing t on any difference. It returns the Prepared (nil when
// rejected) and the engine's error.
func compare(t testing.TB, db *testDB, ctx *Ctx, model specDB, stmt sql.Statement, params []storage.Value) (*Prepared, error) {
	t.Helper()
	start := db.task.Now()
	p, err := db.engine.Prepare(stmt)
	if now := db.task.Now(); now != start {
		t.Errorf("Prepare moved virtual time by %d ns", now-start)
	}
	want, serr := model.run(stmt, params)
	se, _ := serr.(*specErr)
	if err != nil {
		if se == nil || !se.rejected || se.texts[0] != err.Error() {
			t.Errorf("analysis rejected it (%v); the spec: %v", err, serr)
		}
		if db.ts != nil && len(db.drainPoints(t)) > 0 {
			t.Errorf("a rejected statement left training points")
		}
		return nil, err
	}
	res, err := db.engine.Run(ctx, p, params)
	if msg := outcomeDiff(res, err, want, se); msg != "" {
		t.Error(msg)
	}
	if db.ts != nil {
		pts := db.drainPoints(t)
		if err == nil && se == nil {
			if msg := featureDiff(pts, want, slotsOf(db, want)); msg != "" {
				t.Error(msg)
			}
		}
	}
	return p, err
}

// outcomeDiff says how a Run's outcome differs from the spec's, or "".
func outcomeDiff(res *Result, err error, want *specResult, se *specErr) string {
	switch {
	case se != nil && se.rejected:
		return fmt.Sprintf("the spec rejects it (%v); analysis did not", se)
	case err != nil && se == nil:
		return fmt.Sprintf("error %v; the spec runs it", err)
	case err != nil && !slices.Contains(se.texts, err.Error()):
		return fmt.Sprintf("error %q; the spec fails with %v", err, se)
	case err != nil:
		return ""
	case se != nil:
		return fmt.Sprintf("the spec fails with %v; the engine returned %+v", se, res)
	}
	if msg := resultDiff(res, want); msg != "" {
		return "result: " + msg
	}
	return ""
}

// resultDiff compares a Result with the spec's: columns and rows written;
// the rows as a multiset, ORDER BY's keys in order, any of the spec's rows
// under a LIMIT that cuts; EXPLAIN's line count and ANALYZE's row count.
func resultDiff(res *Result, want *specResult) string {
	if !slices.Equal(res.Cols, want.cols) || res.Affected != want.affected {
		return fmt.Sprintf("columns %v, %d affected; spec %v, %d", res.Cols, res.Affected, want.cols, want.affected)
	}
	if want.lines > 0 {
		n, actual := want.lines, ""
		if want.inner != nil {
			n, actual = n+2, fmt.Sprintf("Actual rows: %d", want.inner.outRows())
		}
		if len(res.Rows) != n || (actual != "" && res.Rows[want.lines][0].Str() != actual) {
			return fmt.Sprintf("plan %v, spec %d lines and %q", res.Rows, n, actual)
		}
		return ""
	}
	if n := want.outRows(); want.cols != nil && len(res.Rows) != n {
		return fmt.Sprintf("%d rows, spec %d", len(res.Rows), n)
	}
	for i, row := range res.Rows {
		for _, k := range want.keys {
			if row[k.col].Compare(want.rows[i][k.col]) != 0 {
				return fmt.Sprintf("row %d is out of order", i)
			}
		}
	}
	return subsetDiff(res.Rows, want.rows, want.sums)
}

// subsetDiff reports a row of got that is not one of want's, each of want's
// standing for one of got's: with as many rows, they are the same multiset.
func subsetDiff(got, want []storage.Row, sums []bool) string {
	left := map[string]int{}
	for _, w := range want {
		left[rowText(w, sums)]++
	}
	for _, g := range got {
		k := rowText(g, sums)
		if left[k]--; left[k] < 0 {
			return fmt.Sprintf("row %v is not one of the spec's", g)
		}
	}
	return ""
}

// rowText renders a row's cells with their kinds, exactly (a FLOAT in the
// shortest text that reads back to its bits), but a SUM or AVG to ten
// digits: the spec does not fix the order rows are added in.
func rowText(r storage.Row, sums []bool) string {
	var b strings.Builder
	for i, v := range r {
		if i < len(sums) && sums[i] && v.Kind() == storage.KindFloat {
			fmt.Fprintf(&b, "%v %.10g, ", v.Kind(), v.AsFloat())
		} else {
			fmt.Fprintf(&b, "%v %q, ", v.Kind(), v.String())
		}
	}
	return b.String()
}

// featureDiff checks what the spec states of a statement's training points:
// output.num_rows is the rows returned, a DML OU's num_rows the rows
// written, seq_scan.num_rows the slots of a table read, and filter's
// num_rows_out, in scan order, the rows passing each table's conjuncts.
func featureDiff(pts []tscout.TrainingPoint, want *specResult, slots []int) string {
	if want.lines > 0 && want.inner == nil && len(pts) > 0 {
		return "plain EXPLAIN left training points"
	}
	if want.inner != nil {
		want = want.inner
	}
	var kept []int
	for _, p := range pts {
		f := int(p.Features[0])
		switch {
		case p.OUName == "output" && f != want.outRows(),
			slices.Contains([]string{"insert", "update", "delete"}, p.OUName) && f != want.affected,
			p.OUName == "seq_scan" && !slices.Contains(slots, f):
			return fmt.Sprintf("%s.num_rows %d; spec %d rows out, %d written, slots %v",
				p.OUName, f, want.outRows(), want.affected, slots)
		case p.OUName == "filter":
			kept = append(kept, int(p.Features[2]))
		}
	}
	if !slices.Equal(kept, want.kept) {
		return fmt.Sprintf("filter.num_rows_out %v, spec %v", kept, want.kept)
	}
	return ""
}

// slotsOf lists the slots of the tables a statement read: a heap's slots,
// a virtual table's rows.
func slotsOf(db *testDB, want *specResult) (slots []int) {
	for _, t := range want.tables {
		if tbl, _ := db.cat.Table(t.name); tbl.Heap != nil {
			slots = append(slots, tbl.Heap.NumSlots())
		} else {
			slots = append(slots, len(t.rows))
		}
	}
	return slots
}

// specHarness holds one database to the spec, a statement a transaction:
// committed when it succeeds, rolled back on both sides when it fails. It
// counts the statements that ran, failed at run time or were rejected, and
// the access paths TLP partitioned.
type specHarness struct {
	db                   *testDB
	model                specDB
	ok, failed, rejected int
	paths                map[string]int
}

func newSpecHarness(t testing.TB, instrumented, fuse bool) *specHarness {
	db := newDiffDB(t, instrumented, fuse)
	return &specHarness{db: db, model: specFrom(db.cat, db.mgr), paths: map[string]int{}}
}

func (h *specHarness) exec(t testing.TB, stmt sql.Statement, params []storage.Value) {
	t.Helper()
	db, saved := h.db, h.model.clone()
	ctx := &Ctx{Task: db.task, Txn: db.mgr.Begin()}
	if db.ts != nil {
		db.ts.BeginEvent(db.task, tscout.SubsystemExecutionEngine)
	}
	p, err := compare(t, db, ctx, h.model, stmt, params)
	switch {
	case p == nil:
		h.rejected++
	case err != nil:
		h.failed++
	default:
		h.ok++
	}
	if err != nil {
		_ = ctx.Txn.Abort()
		h.model = saved
		return
	}
	if _, err := ctx.Txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if s, ok := stmt.(*sql.SelectStmt); ok && !t.Failed() {
		h.tlp(t, p, s, params)
	}
}

// tlp partitions a SELECT that ran at a value k of a column c of its FROM
// table — s ∧ c < k and s ∧ c >= k — whose parts must make up the whole:
// rows as a multiset, COUNT(*) and SUM(c) as sums. Value.Compare orders
// NULL first, so the parts cover NULLs. It counts the FROM table's access
// path, which adding c < k never changes.
func (h *specHarness) tlp(t testing.TB, p *Prepared, s *sql.SelectStmt, params []storage.Value) {
	t.Helper()
	if s.Limit >= 0 || p.plan.(*selectPlan).agg != nil {
		return
	}
	from := h.model[s.From.Name]
	c := sql.ColRef{Table: s.From.Binding(), Name: from.cols[h.ok%len(from.cols)]}
	k := storage.Null()
	if len(from.rows) > 0 && h.ok%7 != 0 {
		k = from.rows[h.ok%len(from.rows)][from.col(c.Name)]
	}
	tx := h.db.mgr.Begin()
	defer tx.Abort()
	part := func(op sql.CmpOp) []sql.Predicate {
		return append(slices.Clone(s.Where), sql.Predicate{Col: c, Op: op, Val: sql.Literal{Val: k}})
	}
	run := func(count bool, where []sql.Predicate) *Result {
		q := *s
		q.Where = where
		if count {
			q.Exprs, q.OrderBy = []sql.SelectExpr{{Agg: sql.AggCount}, {Agg: sql.AggSum, Col: c}}, nil
		}
		res, err := h.db.engine.Execute(&Ctx{Task: h.db.task, Txn: tx}, &q, params)
		if err != nil {
			t.Fatalf("TLP on %s at %v: %v", c, k, err)
		}
		return res
	}
	lt, ge := part(sql.OpLt), part(sql.OpGe)
	whole, lo, hi := run(false, s.Where), run(false, lt), run(false, ge)
	if msg := subsetDiff(whole.Rows, append(lo.Rows, hi.Rows...), nil); len(whole.Rows) != len(lo.Rows)+len(hi.Rows) || msg != "" {
		t.Errorf("TLP on %s at %v: %d rows, parts %d + %d: %s", c, k, len(whole.Rows), len(lo.Rows), len(hi.Rows), msg)
	}
	n, a, b := run(true, s.Where).Rows[0], run(true, lt).Rows[0], run(true, ge).Rows[0]
	sum := storage.Row{storage.NewInt(a[0].AsInt() + b[0].AsInt()), storage.NewFloat(a[1].AsFloat() + b[1].AsFloat())}
	if sums := []bool{false, true}; rowText(n, sums) != rowText(sum, sums) {
		t.Errorf("TLP on %s at %v: COUNT(*), SUM %v, parts %v and %v", c, k, n, a, b)
	}
	if h.db.ts != nil {
		h.db.drainPoints(t)
	}
	h.paths[accessKind(p)]++
}

// accessKind names the access path a SELECT reads its FROM table by.
func accessKind(p *Prepared) string {
	a := p.plan.(*selectPlan).from
	switch {
	case a.table.Virtual != nil:
		return "virtual"
	case a.index == nil:
		return "seq"
	case a.index.Kind == catalog.HashKind:
		return "hash"
	case !a.exact:
		return "prefix range"
	case len(a.index.KeyCols) > 1:
		return "two-column exact"
	case a.index.Unique:
		return "unique exact"
	}
	return "exact"
}

// byteSrc feeds the grammar: fuzz input or seeded random bytes. An
// exhausted source yields zeros, which pick each production's plainest arm.
type byteSrc struct {
	b []byte
	i int
}

func (s *byteSrc) n(mod int) int {
	if s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i]) % mod
	s.i++
	return v
}

// rare is true about once in k draws.
func (s *byteSrc) rare(k int) bool { return s.n(k) == k-1 }

type genTable struct {
	name string
	cols []string
	strs map[string]string // string columns and their value prefix
}

var genTables = []genTable{
	{"items", []string{"id", "grp", "sub", "qty", "price", "name"}, map[string]string{"name": "n"}},
	{"orders", []string{"id", "item_id", "qty", "note"}, map[string]string{"note": "o"}},
	{"regions", []string{"rid", "grp", "label"}, map[string]string{"label": "r"}},
	{"vt", []string{"a", "b", "c"}, map[string]string{"c": "v"}},
}

// scoped is a table in a statement's FROM/JOIN scope under its binding.
type scoped struct {
	genTable
	binding string
}

type stmtGen struct {
	src    *byteSrc
	params []storage.Value
	sb     strings.Builder
}

// colRef picks a column of some table in scope, sometimes qualified,
// rarely unknown. It returns the reference and the table and column picked.
func (g *stmtGen) colRef(scope []scoped) (ref string, tbl scoped, col string) {
	tbl = scope[g.src.n(len(scope))]
	col = tbl.cols[g.src.n(len(tbl.cols))]
	if g.src.rare(64) {
		return "nosuch", tbl, col
	}
	// In a join most references are qualified; bare ones may be ambiguous.
	qualify := g.src.n(8)
	if (len(scope) > 1 && qualify != 0) || (len(scope) == 1 && qualify == 7) {
		return tbl.binding + "." + col, tbl, col
	}
	return col, tbl, col
}

// value renders an operand for col: literals of the column's kind, $n
// slots, $n + 1, negatives, and rarely an operand that cannot be bound.
func (g *stmtGen) value(tbl scoped, col string) string {
	prefix, isStr := tbl.strs[col]
	lit := func() (string, storage.Value) {
		k := int64(g.src.n(12))
		switch {
		case isStr:
			s := fmt.Sprintf("%s%d", prefix, k%8)
			return "'" + s + "'", storage.NewString(s)
		case col == "price":
			return fmt.Sprintf("%d.5", k), storage.NewFloat(float64(k) + 0.5)
		}
		return fmt.Sprint(k), storage.NewInt(k)
	}
	param := func(v storage.Value) string {
		g.params = append(g.params, v)
		return fmt.Sprintf("$%d", len(g.params))
	}
	switch g.src.n(16) {
	case 0, 1, 2, 3, 4, 5, 14:
		text, _ := lit()
		return text
	case 6, 7, 8, 9:
		_, v := lit()
		return param(v)
	case 10:
		if !isStr {
			_, v := lit()
			return param(v) + " + 1"
		}
		text, _ := lit()
		return text
	case 11:
		return "-1"
	case 12:
		return "2 * 3"
	case 13:
		return "null"
	}
	switch g.src.n(8) {
	case 5:
		return "$9" // never bound
	case 6:
		return "qty" // a column where no input row exists (except in SET)
	case 7:
		return "'a' - 1" // operator on strings
	}
	text, _ := lit()
	return text
}

var genOps = []string{"=", "=", "=", "=", "=", "<", ">=", "<>"}

func (g *stmtGen) where(scope []scoped) {
	n := g.src.n(5)
	for i := 0; i < n; i++ {
		if i == 0 {
			g.sb.WriteString(" WHERE ")
		} else {
			g.sb.WriteString(" AND ")
		}
		ref, tbl, col := g.colRef(scope)
		if g.src.rare(12) {
			fmt.Fprintf(&g.sb, "%s BETWEEN %s AND %s", ref, g.value(tbl, col), g.value(tbl, col))
			continue
		}
		fmt.Fprintf(&g.sb, "%s %s %s", ref, genOps[g.src.n(len(genOps))], g.value(tbl, col))
	}
}

// from picks a table, rarely an unknown one, in a SELECT optionally
// aliased. DML mostly keeps to the heap tables: the virtual one is
// read-only.
func (g *stmtGen) from(inSelect bool, idx int) scoped {
	pick := g.src.n(len(genTables))
	if !inSelect && pick == len(genTables)-1 && !g.src.rare(8) {
		pick = 0
	}
	t := scoped{genTable: genTables[pick]}
	t.binding = t.name
	name := t.name
	if g.src.rare(64) {
		name = "nosuch"
	}
	g.sb.WriteString(name)
	if inSelect && g.src.n(2) == 1 {
		t.binding = fmt.Sprintf("t%d", idx)
		g.sb.WriteString(" " + t.binding)
	}
	return t
}

func (g *stmtGen) selectStmt() {
	g.sb.WriteString("SELECT ")
	// The select list is written after the scope is known: build the tail
	// first, then prepend the list.
	var tail stmtGen
	tail.src, tail.params = g.src, g.params
	tail.sb.WriteString(" FROM ")
	scope := []scoped{tail.from(true, 0)}
	for joins := []int{0, 0, 0, 0, 0, 1, 1, 2}[g.src.n(8)]; joins > 0; joins-- {
		tail.sb.WriteString(" JOIN ")
		right := tail.from(true, len(scope))
		lref, _, _ := tail.colRef(scope)
		rref, _, _ := tail.colRef([]scoped{right})
		if g.src.n(4) == 3 {
			lref, rref = rref, lref
		}
		fmt.Fprintf(&tail.sb, " ON %s = %s", lref, rref)
		scope = append(scope, right)
	}
	tail.where(scope)

	var listed []string
	switch mode := g.src.n(6); mode {
	case 0:
		g.sb.WriteString("*")
	case 1, 2, 3:
		for i := 0; i < mode; i++ {
			ref, _, _ := tail.colRef(scope)
			listed = append(listed, ref)
		}
		g.sb.WriteString(strings.Join(listed, ", "))
	case 4:
		ref, _, _ := tail.colRef(scope)
		fmt.Fprintf(&g.sb, "COUNT(*), SUM(%s), MIN(%s), MAX(%s), AVG(%s), COUNT(%s)", ref, ref, ref, ref, ref)
		if g.src.rare(12) {
			g.sb.WriteString(", " + ref) // not grouped
		}
	case 5:
		key, _, _ := tail.colRef(scope)
		agg, _, _ := tail.colRef(scope)
		fmt.Fprintf(&g.sb, "%s, COUNT(*), SUM(%s)", key, agg)
		listed = []string{key}
		group := key
		if g.src.rare(12) {
			group = agg // the listed column is then not a grouping key
		}
		tail.sb.WriteString(" GROUP BY " + group)
	}
	if g.src.n(4) == 0 {
		key := "nosuch"
		if len(listed) > 0 && !g.src.rare(12) {
			key = listed[g.src.n(len(listed))]
		} else if len(listed) == 0 {
			key, _, _ = tail.colRef(scope)
		}
		tail.sb.WriteString(" ORDER BY " + key)
		if g.src.n(2) == 1 {
			tail.sb.WriteString(" DESC")
		}
	}
	if g.src.n(4) == 0 {
		fmt.Fprintf(&tail.sb, " LIMIT %d", g.src.n(5))
	}
	g.sb.WriteString(tail.sb.String())
	g.params = tail.params
}

func (g *stmtGen) insertStmt() {
	g.sb.WriteString("INSERT INTO ")
	t := g.from(false, 0)
	cols := t.cols
	if g.src.n(2) == 1 {
		cols = cols[:1+g.src.n(len(cols))]
		names := append([]string(nil), cols...)
		if g.src.rare(16) {
			names[0] = "nosuch"
		}
		g.sb.WriteString(" (" + strings.Join(names, ", ") + ")")
	}
	g.sb.WriteString(" VALUES ")
	for row, rows := 0, 1+g.src.n(2); row < rows; row++ {
		if row > 0 {
			g.sb.WriteString(", ")
		}
		vals := make([]string, 0, len(cols)+1)
		for _, c := range cols {
			vals = append(vals, g.value(t, c))
		}
		if g.src.rare(16) {
			vals = append(vals, "1") // wrong arity
		}
		g.sb.WriteString("(" + strings.Join(vals, ", ") + ")")
	}
}

func (g *stmtGen) updateStmt() {
	g.sb.WriteString("UPDATE ")
	t := g.from(false, 0)
	g.sb.WriteString(" SET ")
	for i, n := 0, 1+g.src.n(2); i < n; i++ {
		if i > 0 {
			g.sb.WriteString(", ")
		}
		col := t.cols[g.src.n(len(t.cols))]
		target := col
		if g.src.rare(24) {
			target = "nosuch"
		}
		switch g.src.n(4) {
		case 0, 1:
			fmt.Fprintf(&g.sb, "%s = %s", target, g.value(t, col))
		case 2:
			fmt.Fprintf(&g.sb, "%s = %s + %s", target, col, g.value(t, col))
		case 3:
			ref, _, _ := g.colRef([]scoped{t})
			fmt.Fprintf(&g.sb, "%s = %s - 1", target, ref)
		}
	}
	g.where([]scoped{t})
}

func (g *stmtGen) deleteStmt() {
	g.sb.WriteString("DELETE FROM ")
	t := g.from(false, 0)
	g.where([]scoped{t})
}

// genStatement draws one statement and its parameter values from src.
func genStatement(src *byteSrc) (string, []storage.Value) {
	g := &stmtGen{src: src}
	kind := src.n(12)
	if kind == 11 {
		g.sb.WriteString("EXPLAIN ")
		if src.n(2) == 1 {
			g.sb.WriteString("ANALYZE ")
		}
		kind = src.n(11)
	}
	switch {
	case kind < 6:
		g.selectStmt()
	case kind < 7:
		g.insertStmt()
	case kind < 10:
		g.updateStmt()
	default:
		g.deleteStmt()
	}
	// Sometimes withhold the last parameter: an unbound $n.
	if len(g.params) > 0 && src.rare(24) {
		g.params = g.params[:len(g.params)-1]
	}
	return g.sb.String(), g.params
}

// diffCases are the hand-written statements every run of
// TestPreparedMatchesSpec includes, one per behaviour worth pinning.
var diffCases = []struct {
	text   string
	params []storage.Value
}{
	// First equality on a column supplies the probe key.
	{"SELECT * FROM items WHERE id = $1 AND id = 2", []storage.Value{storage.NewInt(5)}},
	{"SELECT * FROM items WHERE id = 2 AND id = $1", []storage.Value{storage.NewInt(5)}},
	// Predicates on unindexed columns; mixed with an indexed one.
	{"SELECT id FROM items WHERE qty = 3", nil},
	{"SELECT id FROM items WHERE qty >= 3 AND id = 13 AND price < 100.5", nil},
	// $n + 1 operands, negative and folded literals.
	{"SELECT id FROM items WHERE id = $1 + 1", []storage.Value{storage.NewInt(6)}},
	{"SELECT id FROM items WHERE qty > -1 AND sub = 2 * 1", nil},
	// Prefix range on the two-column index, then the full key.
	{"SELECT id FROM items WHERE grp = $1", []storage.Value{storage.NewInt(2)}},
	{"SELECT id FROM items WHERE sub = 1 AND grp = $1", []storage.Value{storage.NewInt(2)}},
	// Hash index: string key, and no prefix service.
	{"SELECT id FROM items WHERE name = 'n3'", nil},
	{"SELECT rid FROM regions WHERE label = $1", []storage.Value{storage.NewString("r4")}},
	// Qualified and aliased references.
	{"SELECT i.id, i.name FROM items i WHERE i.id = 7", nil},
	{"SELECT items.id FROM items WHERE items.grp = 1 ORDER BY items.id DESC LIMIT 3", nil},
	// Joins: conjuncts on the joined tables, ON written in either order.
	{"SELECT i.id, o.id FROM items i JOIN orders o ON o.item_id = i.id WHERE o.id = $1 AND i.grp = 1",
		[]storage.Value{storage.NewInt(7)}},
	{"SELECT i.id, o.note FROM items i JOIN orders o ON i.id = o.item_id WHERE note = 'o1' AND sub = 3", nil},
	{"SELECT i.id, r.label FROM items i JOIN orders o ON o.item_id = i.id JOIN regions r ON r.grp = i.grp WHERE label = 'r2' AND o.qty = 1", nil},
	// Ambiguous bare names across a join.
	{"SELECT id FROM items i JOIN orders o ON o.item_id = i.id", nil},
	{"SELECT i.id FROM items i JOIN orders o ON o.item_id = i.id WHERE qty = 1", nil},
	// Self-join without aliases: qualified names resolve to the later table.
	{"SELECT items.id FROM items JOIN items ON items.id = items.id WHERE items.id = 3", nil},
	// Aggregates, grouping, ordering.
	{"SELECT grp, COUNT(*), SUM(price) FROM items GROUP BY grp ORDER BY grp", nil},
	{"SELECT COUNT(*), MIN(qty), MAX(qty), AVG(price) FROM items WHERE grp = 9", nil},
	{"SELECT o.qty, COUNT(*) FROM items i JOIN orders o ON o.item_id = i.id GROUP BY o.qty ORDER BY qty DESC", nil},
	// Virtual-table projection pushdown.
	{"SELECT a, c FROM vt WHERE b = 2", nil},
	{"SELECT b, COUNT(*) FROM vt GROUP BY b ORDER BY b", nil},
	{"SELECT * FROM vt WHERE a < 5 LIMIT 2", nil},
	// DML.
	{"UPDATE items SET qty = qty + $1, price = price * 2 WHERE id = $2", []storage.Value{storage.NewInt(4), storage.NewInt(9)}},
	{"UPDATE items SET grp = 3, sub = 3 WHERE grp = 1 AND sub = 1", nil},
	{"UPDATE items SET id = 500 WHERE id = 11", nil},
	{"DELETE FROM orders WHERE item_id = 4", nil},
	{"INSERT INTO orders VALUES (100, 4, 2, 'o9'), ($1, 5, 1, 'o9')", []storage.Value{storage.NewInt(101)}},
	{"INSERT INTO regions (label, rid) VALUES ('r9', 9)", nil},
	{"EXPLAIN SELECT i.id FROM items i JOIN orders o ON o.item_id = i.id WHERE o.id = 3 ORDER BY i.id LIMIT 1", nil},
	{"EXPLAIN ANALYZE UPDATE items SET qty = 0 WHERE grp = 2 AND sub = 2", nil},
	// A key that changes inside a prefix range, and one that changes back:
	// the stale entries must not yield the row a second time.
	{"UPDATE items SET sub = 1 WHERE id = 2", nil},
	{"SELECT id, sub FROM items WHERE grp = 2", nil},
	{"UPDATE items SET id = 11 WHERE id = 500", nil},
	{"SELECT * FROM items WHERE id = 11", nil},
	// NULL and the string 'NULL' are different keys for GROUP BY and JOIN.
	{"INSERT INTO items (id, name) VALUES (200, null), (201, 'NULL'), (202, null)", nil},
	{"SELECT name, COUNT(*) FROM items WHERE id >= 200 GROUP BY name", nil},
	{"SELECT a.id, b.id FROM items a JOIN items b ON a.name = b.name WHERE a.id >= 200", nil},
	// Binding failures stay at run time.
	{"SELECT * FROM items WHERE id = $2", []storage.Value{storage.NewInt(1)}},
	{"SELECT * FROM items WHERE grp = qty", nil},
	{"SELECT * FROM items WHERE name = 'a' - 1", nil},
	{"INSERT INTO regions VALUES ($1, $2, $3)", []storage.Value{storage.NewInt(7)}},
	{"SELECT i.id FROM items i JOIN orders o ON o.item_id = i.id WHERE o.id = $3", nil},
	// Name-resolution failures: rejected by analysis.
	{"SELECT nosuch FROM items", nil},
	{"SELECT id FROM items WHERE nosuch = 1", nil},
	{"SELECT id FROM nosuch", nil},
	{"SELECT i.id FROM items i JOIN nosuch n ON n.x = i.id", nil},
	{"SELECT i.id FROM items i JOIN orders o ON o.nosuch = i.nosuch", nil},
	{"SELECT qty, COUNT(*) FROM items GROUP BY grp", nil},
	{"SELECT id FROM items ORDER BY price", nil},
	{"INSERT INTO regions (rid) VALUES (1, 2)", nil},
	{"INSERT INTO regions (nosuch) VALUES (1)", nil},
	{"UPDATE items SET nosuch = 1 WHERE id = 1", nil},
	{"UPDATE items SET qty = nosuch + 1 WHERE id = 1", nil},
	{"UPDATE items SET qty = nosuch + 1 WHERE id = 9999", nil},
	{"UPDATE vt SET a = 1", nil},
	{"DELETE FROM items WHERE nosuch = 1", nil},
}

// TestPreparedMatchesSpec holds Prepare/Run to the spec over the hand-written
// cases and a seeded stream from the grammar, on a plain, a fused and an
// instrumented database whose state evolves, partitioning every SELECT. The
// benchmark generators run the same comparison in prepared_workload_test.go.
func TestPreparedMatchesSpec(t *testing.T) {
	for _, cfg := range []struct {
		name               string
		instrumented, fuse bool
		statements         int
	}{
		{"plain", false, false, 3000},
		{"fused", true, true, 600},
		{"instrumented", true, false, 600},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			h := newSpecHarness(t, cfg.instrumented, cfg.fuse)
			run := func(text string, params []storage.Value) {
				stmt, err := sql.Parse(text)
				if err != nil {
					return
				}
				h.exec(t, stmt, params)
				if t.Failed() {
					t.Fatalf("first mismatch on %q %v", text, params)
				}
			}
			for _, c := range diffCases {
				mustParse(t, c.text)
				run(c.text, c.params)
			}
			rng := rand.New(rand.NewSource(19))
			buf := make([]byte, 96)
			kinds := map[string]int{}
			for i := 0; i < cfg.statements; i++ {
				rng.Read(buf)
				text, params := genStatement(&byteSrc{b: buf})
				kinds[strings.Fields(text)[0]]++
				run(text, params)
			}
			if len(kinds) != 5 {
				t.Errorf("the grammar produced only %v", kinds)
			}
			t.Logf("%d statements ran, %d failed at run time, %d were rejected by analysis; TLP paths %v",
				h.ok, h.failed, h.rejected, h.paths)
			if h.ok < cfg.statements/2 || h.failed == 0 || h.rejected == 0 {
				t.Errorf("the stream is lopsided")
			}
			for _, path := range []string{"seq", "unique exact", "two-column exact", "prefix range", "hash", "virtual"} {
				if h.paths[path] == 0 {
					t.Errorf("TLP never partitioned a %s read", path)
				}
			}
		})
	}
}

// TestAnalysisRejectsBeforeWork: a statement whose names do not resolve
// is rejected by analysis, with the spec's text, before it has charged
// anything or opened an OU (compare checks both).
func TestAnalysisRejectsBeforeWork(t *testing.T) {
	h := newSpecHarness(t, true, false)
	for _, q := range []string{
		"SELECT nosuch FROM items",
		"INSERT INTO regions (rid) VALUES (1, 2)",
		"SELECT i.id FROM items i JOIN orders o ON o.item_id = i.id WHERE nosuch = 1",
		"SELECT id FROM items ORDER BY price",
		"EXPLAIN SELECT nosuch FROM items",
		"UPDATE items SET qty = nosuch + 1 WHERE id = 9999",
	} {
		h.exec(t, mustParse(t, q), nil)
	}
	if h.rejected != 6 {
		t.Errorf("%d of 6 statements rejected", h.rejected)
	}
}

// TestPreparedIsReusable runs one Prepared many times with different
// parameters, interleaved with a second statement's, and checks nothing of
// one execution leaks into the next — including a caller scribbling on
// the Result it was handed.
func TestPreparedIsReusable(t *testing.T) {
	db := newDiffDB(t, false, false)
	star, err := db.engine.Prepare(mustParse(t, "SELECT * FROM items WHERE id = $1"))
	if err != nil {
		t.Fatal(err)
	}
	upd, err := db.engine.Prepare(mustParse(t, "UPDATE items SET qty = qty + $1 WHERE grp = $2 AND sub = $3"))
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"items.id", "items.grp", "items.sub", "items.qty", "items.price", "items.name"}
	for i := int64(0); i < 20; i++ {
		tx := db.mgr.Begin()
		ctx := &Ctx{Task: db.task, Txn: tx}
		res, err := db.engine.Run(ctx, star, []storage.Value{storage.NewInt(i)})
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsInt() != i {
			t.Fatalf("probe %d: %v %+v", i, err, res)
		}
		if !reflect.DeepEqual(res.Cols, wantCols) {
			t.Fatalf("probe %d: cols %v", i, res.Cols)
		}
		res.Cols[0], res.Rows = "scribbled", nil
		if _, err := db.engine.Run(ctx, upd, []storage.Value{storage.NewInt(1), storage.NewInt(i % 6), storage.NewInt(i % 4)}); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.engine.Run(&Ctx{Task: db.task, Txn: db.mgr.Begin()}, star, nil); err == nil ||
		err.Error() != "exec: parameter $1 not bound (0 given)" {
		t.Fatalf("unbound run: %v", err)
	}
}

// FuzzPreparedDifferential: bytes → one statement from the grammar and its
// parameters → a fresh instrumented database, fused or not, and its model.
// Any difference from the spec, or a SELECT its partitions miss, fails.
func FuzzPreparedDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 24; i++ {
		b := make([]byte, 64)
		rng.Read(b)
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		text, params := genStatement(&byteSrc{b: data[1:]})
		stmt, err := sql.Parse(text)
		if err != nil {
			return
		}
		newSpecHarness(t, true, data[0]&1 == 1).exec(t, stmt, params)
		if t.Failed() {
			t.Logf("statement: %s  params: %v", text, params)
		}
	})
}
