package exec

// The differential harness over plan_oracle_test.go: two identical
// databases, one driven through Prepare/Run and one through the oracle,
// compared after every statement — the bound access paths, the projection,
// the Result, the error text, the virtual clock and (instrumented) the
// training points. genStatement is the small SQL grammar both the seeded
// test and FuzzPreparedDifferential draw statements from.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tscout/internal/catalog"
	"tscout/internal/sql"
	"tscout/internal/storage"
	"tscout/internal/tscout"
)

// accessView is one bound access path in comparable form.
type accessView struct {
	table, index string
	exact        bool
	key, lo, hi  int64
	residual     []compiledPred
	proj         []int
}

// planView is what one execution's analysis decided: the access path of
// the FROM (or DML) table and of each joined table, the post-join filter,
// and the output columns with, for plain projections, their positions.
type planView struct {
	access []accessView
	post   []compiledPred
	cols   []string
	idxs   []int
}

func (v *planView) addAccess(ap accessPath) {
	if v == nil {
		return
	}
	av := accessView{
		table: ap.table.Name, exact: ap.exact, key: ap.key, lo: ap.keyLo, hi: ap.keyHi,
		residual: append([]compiledPred(nil), ap.residual...),
		proj:     append([]int(nil), ap.proj...),
	}
	if ap.index != nil {
		av.index = ap.index.Name
	}
	v.access = append(v.access, av)
}

func (v *planView) setPost(preds []compiledPred) {
	if v != nil {
		v.post = append([]compiledPred(nil), preds...)
	}
}

func (v *planView) setProjection(cols []string, idxs []int, _ error) {
	if v != nil {
		v.cols, v.idxs = append([]string(nil), cols...), append([]int(nil), idxs...)
	}
}

// view binds p's plan to params without executing it.
func (p *Prepared) view(params []storage.Value) (*planView, error) {
	v := &planView{}
	ctx := &Ctx{}
	add := func(a *accessPlan) error {
		ap, err := a.bind(ctx, params)
		if err == nil {
			v.addAccess(ap)
		}
		return err
	}
	switch pl := p.plan.(type) {
	case *selectPlan:
		if err := add(&pl.from); err != nil {
			return nil, err
		}
		for i := range pl.joins {
			if err := add(&pl.joins[i].access); err != nil {
				return nil, err
			}
		}
		post, err := pl.post.bind(ctx, params)
		if err != nil {
			return nil, err
		}
		v.setPost(post)
		v.setProjection(pl.cols, pl.projIdxs, nil)
	case *updatePlan:
		if err := add(&pl.access); err != nil {
			return nil, err
		}
	case *deletePlan:
		if err := add(&pl.access); err != nil {
			return nil, err
		}
	}
	return v, nil
}

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

// newDiffDB builds the differential tests' database: three heap tables
// with a unique B+Tree, a non-unique two-column B+Tree (prefix ranges), a
// hash index and a unique hash index between them, plus a virtual table.
// Column names repeat across tables (id, grp, qty) so bare references in a
// join can be ambiguous.
func newDiffDB(t testing.TB, instrumented, fuse bool) *testDB {
	t.Helper()
	db := newEmptyTestDB(t, instrumented)
	db.engine.FuseSimpleSelects = fuse
	cat := db.cat

	must := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	intCol := func(n string) storage.Column { return storage.Column{Name: n, Kind: storage.KindInt} }
	strCol := func(n string) storage.Column { return storage.Column{Name: n, Kind: storage.KindString} }
	must(cat.CreateTable("items", storage.MustSchema(intCol("id"), intCol("grp"), intCol("sub"), intCol("qty"),
		storage.Column{Name: "price", Kind: storage.KindFloat}, strCol("name"))))
	must(cat.CreateBTreeIndex("items_pk", "items", []string{"id"}, []uint{24}, true))
	must(cat.CreateBTreeIndex("items_grp", "items", []string{"grp", "sub"}, []uint{12, 12}, false))
	must(cat.CreateHashIndex("items_name", "items", []string{"name"}, false))
	must(cat.CreateTable("orders", storage.MustSchema(intCol("id"), intCol("item_id"), intCol("qty"), strCol("note"))))
	must(cat.CreateBTreeIndex("orders_pk", "orders", []string{"id"}, []uint{24}, true))
	must(cat.CreateBTreeIndex("orders_item", "orders", []string{"item_id"}, []uint{24}, false))
	must(cat.CreateTable("regions", storage.MustSchema(intCol("rid"), intCol("grp"), strCol("label"))))
	must(cat.CreateBTreeIndex("regions_pk", "regions", []string{"rid"}, []uint{24}, true))
	must(cat.CreateHashIndex("regions_label", "regions", []string{"label"}, true))

	load := func(table string, n int, row func(i int64) storage.Row) {
		tbl, _ := cat.Table(table)
		tx := db.mgr.Begin()
		for i := 0; i < n; i++ {
			r := row(int64(i))
			tid, err := tx.Insert(tbl.Heap, r)
			if err != nil {
				t.Fatal(err)
			}
			for _, ix := range tbl.Indexes {
				ix.Insert(ix.KeyFor(r), tid)
			}
		}
		must(tx.Commit())
	}
	iv, sv := storage.NewInt, storage.NewString
	load("items", 60, func(i int64) storage.Row {
		return storage.Row{iv(i), iv(i % 6), iv(i % 4), iv(i % 10), storage.NewFloat(float64(i) * 1.5), sv(fmt.Sprintf("n%d", i%7))}
	})
	load("orders", 40, func(i int64) storage.Row {
		return storage.Row{iv(i), iv(i % 30), iv(i % 5), sv(fmt.Sprintf("o%d", i%3))}
	})
	load("regions", 6, func(i int64) storage.Row {
		return storage.Row{iv(i), iv(i), sv(fmt.Sprintf("r%d", i))}
	})

	vt := &memVirtual{schema: storage.MustSchema(intCol("a"), intCol("b"), strCol("c"))}
	for i := int64(0); i < 24; i++ {
		vt.rows = append(vt.rows, storage.Row{iv(i), iv(i % 4), sv(fmt.Sprintf("v%d", i%3))})
	}
	must(cat.MountVirtual("vt", vt))
	return db
}

// diffPair is the two databases: a runs Prepare/Run, b the oracle.
type diffPair struct {
	a, b         *testDB
	instrumented bool
	// Outcomes seen: statements that ran, failed at run time, or were
	// rejected by analysis.
	ok, failed, rejected int
}

func newDiffPair(t testing.TB, instrumented, fuse bool) *diffPair {
	return &diffPair{
		a: newDiffDB(t, instrumented, fuse), b: newDiffDB(t, instrumented, fuse),
		instrumented: instrumented,
	}
}

// isRunTimeError recognizes failures of executing rather than of resolving
// names: an operand that cannot be evaluated, a row the heap rejects. The
// old executor resolved names as it went, so on a statement with both
// kinds of fault it could meet the run-time one first, where analysis now
// reports the name.
func isRunTimeError(err error) bool {
	msg := err.Error()
	return strings.HasPrefix(msg, "exec: parameter $") ||
		strings.Contains(msg, "in a context without input rows") ||
		strings.HasPrefix(msg, "exec: operator ") || strings.HasPrefix(msg, "exec: unknown operator") ||
		strings.HasPrefix(msg, "storage: ") || strings.HasPrefix(msg, "txn: ")
}

// oracleNeverLooked reports the two ways the old executor could run a
// statement whose names do not all resolve: an UPDATE resolved its SET
// expressions per matched row, so not at all when it matched none; and
// plain EXPLAIN planned only the scans, never the select list, the join
// columns, an INSERT's table or a DML's leftover predicates.
func oracleNeverLooked(stmt sql.Statement, res *Result) bool {
	switch s := stmt.(type) {
	case *sql.UpdateStmt:
		return res.Affected == 0
	case *sql.ExplainStmt:
		_, innerUpdate := s.Stmt.(*sql.UpdateStmt)
		return !s.Analyze || innerUpdate
	}
	return false
}

// sameResult compares two results exactly: Cols, Affected and every cell
// by sameRow.
func sameResult(a, b *Result) bool {
	if a.Affected != b.Affected || len(a.Cols) != len(b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	for i := range a.Rows {
		if !sameRow(a.Rows[i], b.Rows[i]) {
			return false
		}
	}
	return true
}

// sameRow reports whether two rows hold the same cells: the same kind and
// the same bits, strings by content. It is stricter than Value.Equal, which
// holds INT 1 equal to FLOAT 1.0 and NaN equal to every number; a string
// cell holds an address, so reflect.DeepEqual would tell equal text apart.
func sameRow(a, b storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		k := a[i].Kind()
		if k != b[i].Kind() {
			return false
		}
		switch k {
		case storage.KindInt:
			if a[i].AsInt() != b[i].AsInt() {
				return false
			}
		case storage.KindFloat:
			if math.Float64bits(a[i].AsFloat()) != math.Float64bits(b[i].AsFloat()) {
				return false
			}
		case storage.KindString:
			if a[i].Str() != b[i].Str() {
				return false
			}
		}
	}
	return true
}

// exec runs one statement on both sides and reports every difference. It
// returns false when analysis rejected the statement: the oracle side may
// then have done work the prepared side did not, and the caller must not
// reuse the pair.
func (d *diffPair) exec(t testing.TB, stmt sql.Statement, params []storage.Value) bool {
	t.Helper()
	begin := func(db *testDB) *Ctx {
		tx := db.mgr.Begin()
		if db.ts != nil {
			db.ts.BeginEvent(db.task, tscout.SubsystemExecutionEngine)
		}
		return &Ctx{Task: db.task, Txn: tx}
	}
	end := func(ctx *Ctx, err error) {
		if err != nil {
			_ = ctx.Txn.Abort()
		} else if _, cerr := ctx.Txn.Commit(); cerr != nil {
			t.Fatalf("commit: %v", cerr)
		}
	}

	ctxA := begin(d.a)
	startA := d.a.task.Now()
	p, prepErr := d.a.engine.Prepare(stmt)
	if got := d.a.task.Now(); got != startA {
		t.Errorf("Prepare moved virtual time by %d ns", got-startA)
	}
	var resA *Result
	var view *planView
	errA := prepErr
	if prepErr == nil {
		view, _ = p.view(params)
		resA, errA = d.a.engine.Run(ctxA, p, params)
	}
	end(ctxA, errA)

	ctxB := begin(d.b)
	rec := &planView{}
	resB, errB := oracleExecute(d.b.engine, ctxB, stmt, params, rec)
	end(ctxB, errB)

	if prepErr != nil {
		// Early rejection: the old executor failed too — with this text, or
		// with a run-time error it met first — unless it never looked.
		switch {
		case errB == nil:
			if !oracleNeverLooked(stmt, resB) {
				t.Errorf("analysis rejected (%v) what the oracle executed: %+v", prepErr, resB)
			}
		case errB.Error() != prepErr.Error() && !isRunTimeError(errB):
			t.Errorf("analysis error %q, oracle error %q", prepErr, errB)
		}
		d.rejected++
		return false
	}

	if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
		t.Errorf("run error %v, oracle error %v", errA, errB)
		return true
	}
	if errA != nil {
		d.failed++
	} else {
		d.ok++
		if !sameResult(resA, resB) {
			t.Errorf("result mismatch:\nprepared %+v\noracle   %+v", resA, resB)
		}
		if !reflect.DeepEqual(view, rec) {
			t.Errorf("plan mismatch:\nprepared %+v\noracle   %+v", view, rec)
		}
	}
	if a, b := d.a.task.Now(), d.b.task.Now(); a != b {
		t.Errorf("virtual time diverged: prepared %d, oracle %d", a, b)
	}
	if d.instrumented {
		pa, pb := d.a.drainPoints(t), d.b.drainPoints(t)
		if !reflect.DeepEqual(pa, pb) {
			t.Errorf("training points differ:\nprepared %+v\noracle   %+v", pa, pb)
		}
	}
	return true
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
	case 0, 1, 2, 3, 4, 5:
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
	case 14:
		text, _ := lit()
		return text
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

// diffCases are the hand-written statements every run of the differential
// test includes, one per behaviour the analysis had to preserve.
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
	// Joins: deferred predicate pushed to the joined table's scan, one left
	// for the post-join filter, ON written in either order.
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

// TestPreparedMatchesOracle holds Prepare/Run to the per-call analysis it
// replaced: the hand-written cases, then a seeded stream from the grammar,
// each on a plain, a fused and an instrumented pair of databases whose
// state evolves across statements. (The five benchmark generators run the
// same comparison in prepared_workload_test.go.)
func TestPreparedMatchesOracle(t *testing.T) {
	for _, cfg := range []struct {
		name               string
		instrumented, fuse bool
		statements         int
	}{
		{"plain", false, false, 3000},
		{"fused", true, true, 600},
		{"instrumented", true, false, 600},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			d := newDiffPair(t, cfg.instrumented, cfg.fuse)
			run := func(text string, params []storage.Value) {
				stmt, err := sql.Parse(text)
				if err != nil {
					return
				}
				before := t.Failed()
				if !d.exec(t, stmt, params) {
					fresh := newDiffPair(t, cfg.instrumented, cfg.fuse)
					fresh.ok, fresh.failed, fresh.rejected = d.ok, d.failed, d.rejected
					d = fresh
				}
				if t.Failed() && !before {
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
			for _, k := range []string{"SELECT", "INSERT", "UPDATE", "DELETE", "EXPLAIN"} {
				if kinds[k] == 0 {
					t.Errorf("the grammar produced no %s", k)
				}
			}
			t.Logf("%d statements ran, %d failed at run time, %d were rejected by analysis", d.ok, d.failed, d.rejected)
			if d.ok < cfg.statements/2 || d.failed == 0 || d.rejected == 0 {
				t.Errorf("the stream is lopsided")
			}
		})
	}
}

// TestAnalysisRejectsBeforeWork pins the one behaviour change preparing
// statements made: a statement whose names do not resolve is rejected by
// analysis, before it has scanned anything or opened an OU, where it used
// to fail mid-execution and leave training points for work it abandoned.
func TestAnalysisRejectsBeforeWork(t *testing.T) {
	for _, c := range []struct {
		text, wantErr string
		oraclePoints  bool // the old executor emitted samples before failing
	}{
		{"SELECT nosuch FROM items", "exec: unknown column nosuch", true},
		{"INSERT INTO regions (rid) VALUES (1, 2)", "exec: INSERT has 2 values for 1 columns", true},
		{"SELECT i.id FROM items i JOIN orders o ON o.item_id = i.id WHERE nosuch = 1", "exec: cannot resolve predicate on nosuch", true},
		{"SELECT id FROM items ORDER BY price", "exec: ORDER BY column price not in select list", true},
		{"EXPLAIN SELECT nosuch FROM items", "exec: unknown column nosuch", false},
	} {
		d := newDiffPair(t, true, false)
		stmt := mustParse(t, c.text)
		d.a.ts.Processor().Reset()
		start := d.a.task.Now()
		if _, err := d.a.tryRun(c.text); err == nil || err.Error() != c.wantErr {
			t.Fatalf("%q: error %v, want %q", c.text, err, c.wantErr)
		}
		if pts := d.a.drainPoints(t); len(pts) != 0 {
			t.Errorf("%q: a rejected statement left %d training points", c.text, len(pts))
		}
		// tryRun's BeginEvent is the only charge.
		d.b.ts.BeginEvent(d.b.task, tscout.SubsystemExecutionEngine)
		if got, want := d.a.task.Now()-start, d.b.task.Now()-start; got != want {
			t.Errorf("%q: rejection cost %d ns of virtual time, want the sampling check's %d", c.text, got, want)
		}

		ctx := &Ctx{Task: d.b.task, Txn: d.b.mgr.Begin()}
		_, oerr := oracleExecute(d.b.engine, ctx, stmt, nil, nil)
		_ = ctx.Txn.Abort()
		if c.oraclePoints {
			if oerr == nil || oerr.Error() != c.wantErr {
				t.Errorf("%q: the old executor's error was %v, want the same text", c.text, oerr)
			}
			if pts := d.b.drainPoints(t); len(pts) == 0 {
				t.Errorf("%q: expected the old executor to have emitted samples before failing", c.text)
			}
		} else if oerr != nil {
			t.Errorf("%q: the old executor accepted this; got %v", c.text, oerr)
		}
	}

	// An UPDATE whose SET expression names no column used to succeed when
	// it matched nothing; it is now rejected whatever it matches.
	db := newDiffDB(t, false, false)
	for _, q := range []string{
		"UPDATE items SET qty = nosuch + 1 WHERE id = 9999",
		"UPDATE items SET qty = nosuch + 1 WHERE id = 1",
	} {
		if _, err := db.tryRun(q); err == nil || err.Error() != "exec: unknown column nosuch" {
			t.Errorf("%q: error %v", q, err)
		}
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

// FuzzPreparedDifferential: bytes → one statement from the grammar (and its
// parameters) → a fresh pair of instrumented databases. Any difference in
// result, error text, training points or virtual time between Prepare/Run
// and the oracle fails.
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
		src := &byteSrc{b: data[1:]}
		text, params := genStatement(src)
		stmt, err := sql.Parse(text)
		if err != nil {
			return
		}
		d := newDiffPair(t, true, data[0]&1 == 1)
		d.exec(t, stmt, params)
		if t.Failed() {
			t.Logf("statement: %s  params: %v", text, params)
		}
	})
}
