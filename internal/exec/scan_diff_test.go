package exec

// Differential tests of the two operators whose inner loops changed shape —
// the scan that filters at the tuple and the typed INT join — against
// scan_oracle_test.go, one operator call at a time. Each side runs on its
// own kernel, task, TScout and Engine (same seeds, noise on) over ONE shared
// catalog and transaction, so the rows they return can be compared by
// identity and the virtual clocks and training points must come out equal.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tscout/internal/catalog"
	"tscout/internal/kernel"
	"tscout/internal/sql"
	"tscout/internal/storage"
	"tscout/internal/tscout"
	"tscout/internal/txn"
)

// newTwinStacks builds two instrumented execution stacks over one catalog:
// the engine under test runs on the first, the oracle on the second.
func newTwinStacks(t *testing.T) (a, b *testDB) {
	t.Helper()
	cat, mgr := catalog.New(), txn.NewManager()
	return newTestStack(t, cat, mgr, 7, 0.03, true), newTestStack(t, cat, mgr, 7, 0.03, true)
}

// checkTwins compares what one operator call left on the two stacks.
func checkTwins(t *testing.T, a, b *testDB) {
	t.Helper()
	if ta, tb := a.task.Now(), b.task.Now(); ta != tb {
		t.Errorf("virtual time: engine %d ns, oracle %d ns", ta, tb)
	}
	pa, pb := a.drainPoints(t), b.drainPoints(t)
	if len(pb) == 0 {
		t.Errorf("the oracle emitted no training point")
	}
	if !reflect.DeepEqual(pa, pb) {
		t.Errorf("training points differ:\nengine %+v\noracle %+v", pa, pb)
	}
}

// scanFixture is TestFusedScanMatchesOracle's table: t(id, grp, sub, val,
// price, name) with a unique B+Tree on id, a two-column B+Tree on (grp, sub)
// and a hash index on name, 48 committed rows.
type scanFixture struct {
	t    *testing.T
	a, b *testDB
	tbl  *catalog.Table
}

const (
	colID, colGrp, colSub, colVal, colPrice, colName = 0, 1, 2, 3, 4, 5
)

func fixtureRow(i int64) storage.Row {
	return storage.Row{
		storage.NewInt(i), storage.NewInt(i % 4), storage.NewInt(i % 3), storage.NewInt(2 * i),
		storage.NewFloat(float64(i) * 1.5), storage.NewString(fmt.Sprintf("n%d", i%5)),
	}
}

func newScanFixture(t *testing.T) *scanFixture {
	t.Helper()
	f := &scanFixture{t: t}
	f.a, f.b = newTwinStacks(t)
	cat := f.a.cat
	must := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	intCol := func(n string) storage.Column { return storage.Column{Name: n, Kind: storage.KindInt} }
	must(cat.CreateTable("t", storage.MustSchema(intCol("id"), intCol("grp"), intCol("sub"), intCol("val"),
		storage.Column{Name: "price", Kind: storage.KindFloat}, storage.Column{Name: "name", Kind: storage.KindString})))
	must(cat.CreateBTreeIndex("t_pk", "t", []string{"id"}, []uint{24}, true))
	must(cat.CreateBTreeIndex("t_grp", "t", []string{"grp", "sub"}, []uint{12, 12}, false))
	must(cat.CreateHashIndex("t_name", "t", []string{"name"}, false))
	f.tbl, _ = cat.Table("t")
	tx := f.a.mgr.Begin()
	for i := int64(0); i < 48; i++ {
		f.insert(tx, fixtureRow(i))
	}
	must(tx.Commit())
	return f
}

func (f *scanFixture) insert(tx *txn.Txn, row storage.Row) storage.TupleID {
	f.t.Helper()
	tid, err := tx.Insert(f.tbl.Heap, row)
	if err != nil {
		f.t.Fatal(err)
	}
	for _, ix := range f.tbl.Indexes {
		ix.Insert(ix.KeyFor(row), tid)
	}
	return tid
}

// update writes a new version of tuple tid the way updatePlan does: a new
// index entry where a key changed, the old one left behind.
func (f *scanFixture) update(tx *txn.Txn, tid storage.TupleID, col int, v storage.Value) {
	f.t.Helper()
	old, _ := tx.Read(f.tbl.Heap, tid)
	row := old.Clone()
	row[col] = v
	if err := tx.Update(f.tbl.Heap, tid, row); err != nil {
		f.t.Fatal(err)
	}
	for _, ix := range f.tbl.Indexes {
		if ix.KeyFor(old) != ix.KeyFor(row) {
			ix.Insert(ix.KeyFor(row), tid)
		}
	}
}

func (f *scanFixture) delete(tx *txn.Txn, tid storage.TupleID) {
	f.t.Helper()
	if err := tx.Delete(f.tbl.Heap, tid); err != nil {
		f.t.Fatal(err)
	}
}

func (f *scanFixture) commit(tx *txn.Txn) {
	f.t.Helper()
	if _, err := tx.Commit(); err != nil {
		f.t.Fatal(err)
	}
}

// TestFusedScanMatchesOracle: every access path × residual shape × version
// state, the engine's one-pass scan against the materialize-then-filter scan
// it replaced. Tuples 1, 13 and 6 are the ones the states disturb: 1 is in
// every access path's range, 13 in all but the hash probe's, 6 only in the
// hash probe's and the sequential scan's.
func TestFusedScanMatchesOracle(t *testing.T) {
	iv, fv, sv := storage.NewInt, storage.NewFloat, storage.NewString

	// Each state arranges versions and returns the transaction that scans.
	states := []struct {
		name  string
		setup func(f *scanFixture) *txn.Txn
	}{
		{"committed", func(f *scanFixture) *txn.Txn { return f.a.mgr.Begin() }},
		{"own uncommitted write", func(f *scanFixture) *txn.Txn {
			tx := f.a.mgr.Begin()
			f.update(tx, 1, colVal, iv(60))
			f.update(tx, 6, colVal, iv(40))
			f.delete(tx, 13)
			f.insert(tx, storage.Row{iv(100), iv(1), iv(1), iv(30), fv(3), sv("n1")})
			return tx
		}},
		{"another txn's uncommitted write", func(f *scanFixture) *txn.Txn {
			other := f.a.mgr.Begin()
			f.update(other, 1, colVal, iv(60))
			f.update(other, 6, colVal, iv(40))
			f.delete(other, 13)
			f.insert(other, storage.Row{iv(100), iv(1), iv(1), iv(30), fv(3), sv("n1")})
			return f.a.mgr.Begin()
		}},
		{"tombstone", func(f *scanFixture) *txn.Txn {
			del := f.a.mgr.Begin()
			f.delete(del, 1)
			f.delete(del, 6)
			f.delete(del, 13)
			f.commit(del)
			return f.a.mgr.Begin()
		}},
		{"stale index entry", func(f *scanFixture) *txn.Txn {
			// Key-changing updates: the (grp, sub) and name entries tuples 1
			// and 6 were found under stay behind, pointing at versions that no
			// longer carry those keys.
			up := f.a.mgr.Begin()
			f.update(up, 1, colGrp, iv(2))
			f.update(up, 6, colName, sv("n4"))
			f.update(up, 13, colSub, iv(2))
			f.commit(up)
			return f.a.mgr.Begin()
		}},
		{"three versions at an old snapshot", func(f *scanFixture) *txn.Txn {
			old := f.a.mgr.Begin()
			for _, val := range []int64{60, 70} {
				up := f.a.mgr.Begin()
				f.update(up, 1, colVal, iv(val))
				f.update(up, 6, colVal, iv(val))
				if val == 70 {
					f.delete(up, 13)
				}
				f.commit(up)
			}
			return old
		}},
	}

	residuals := []struct {
		name  string
		preds []compiledPred
	}{
		{"no residual", nil},
		{"all pass", []compiledPred{{colVal, sql.OpGe, iv(0)}}},
		{"none pass", []compiledPred{{colVal, sql.OpGe, iv(0)}, {colPrice, sql.OpLt, fv(-1)}}},
		// One predicate per comparison arm: INT = INT, INT >= INT, FLOAT <
		// FLOAT, VARCHAR <> VARCHAR, in column order as the planner binds them.
		{"mixed", []compiledPred{
			{colGrp, sql.OpEq, iv(1)}, {colVal, sql.OpGe, iv(20)},
			{colPrice, sql.OpLt, fv(40.5)}, {colName, sql.OpNe, sv("n3")},
		}},
	}

	for _, st := range states {
		st := st
		t.Run(st.name, func(t *testing.T) {
			f := newScanFixture(t)
			tx := st.setup(f)
			grp, name := f.tbl.Indexes[1], f.tbl.Indexes[2]
			lo, hi := grp.PrefixRange([]storage.Value{iv(1)})
			accesses := []struct {
				name string
				ap   accessPath
			}{
				{"seq", accessPath{table: f.tbl}},
				{"exact btree", accessPath{table: f.tbl, index: grp, exact: true,
					key: grp.KeyForValues([]storage.Value{iv(1), iv(1)})}},
				{"prefix range", accessPath{table: f.tbl, index: grp, keyLo: lo, keyHi: hi}},
				{"hash", accessPath{table: f.tbl, index: name, exact: true,
					key: name.KeyForValues([]storage.Value{sv("n1")})}},
			}
			// One Ctx for the whole sweep, as a session keeps one: each scan
			// overwrites the scratch the one before returned.
			ctxA := &Ctx{Task: f.a.task, Txn: tx}
			ctxB := &Ctx{Task: f.b.task, Txn: tx}
			kept := map[string]int{}
			for _, ac := range accesses {
				for _, rs := range residuals {
					ap := ac.ap
					ap.residual = rs.preds
					f.a.ts.BeginEvent(f.a.task, tscout.SubsystemExecutionEngine)
					f.b.ts.BeginEvent(f.b.task, tscout.SubsystemExecutionEngine)
					got := f.a.engine.runScan(ctxA, &ap)
					want := oracleRunScan(f.b.engine, ctxB, ap)
					if len(got) != len(want) {
						t.Fatalf("%s, %s: %d matches, oracle %d", ac.name, rs.name, len(got), len(want))
					}
					for i := range got {
						if got[i].tid != want[i].tid || &got[i].row[0] != &want[i].row[0] {
							t.Fatalf("%s, %s: match %d is tuple %d %v, oracle tuple %d %v",
								ac.name, rs.name, i, got[i].tid, got[i].row, want[i].tid, want[i].row)
						}
					}
					kept[ac.name+"/"+rs.name] = len(got)
					checkTwins(t, f.a, f.b)
					if t.Failed() {
						t.Fatalf("first difference at %s, %s", ac.name, rs.name)
					}
				}
			}
			// The sweep is only worth its name if the residuals discriminate.
			for _, ac := range accesses {
				all, mixed := kept[ac.name+"/all pass"], kept[ac.name+"/mixed"]
				if kept[ac.name+"/no residual"] != all || kept[ac.name+"/none pass"] != 0 || mixed == 0 || mixed >= all {
					t.Errorf("%s: kept %d / %d / %d / %d rows with no, all-pass, none-pass and mixed residuals",
						ac.name, kept[ac.name+"/no residual"], all, kept[ac.name+"/none pass"], mixed)
				}
			}
		})
	}
}

// TestTypedJoinMatchesRendered: the join's INT-keyed table against the
// rendered-key join on every kind mix — same rows in the same order, same
// virtual time and same hash_join training point (whose memory figure is the
// build side's byte count). Only the all-INT inputs may take the typed path.
func TestTypedJoinMatchesRendered(t *testing.T) {
	iv, fv, sv, null := storage.NewInt, storage.NewFloat, storage.NewString, storage.Null()
	ints := func(ks ...int64) (out []storage.Value) {
		for _, k := range ks {
			out = append(out, iv(k))
		}
		return out
	}
	floats := func(ks ...float64) (out []storage.Value) {
		for _, k := range ks {
			out = append(out, fv(k))
		}
		return out
	}
	for _, c := range []struct {
		name        string
		left, right []storage.Value
		typed       bool
		matches     int
	}{
		{"int x int, duplicates on both sides", ints(3, 1, 3, 2, 9, 1), ints(1, 3, 3, 4, 1, 3), true, 10},
		{"int x int, extremes", ints(-1<<63, 1<<63-1, 1<<53, 1<<53+1), ints(1<<53+1, -1<<63, 1<<63-1, 1<<53+1), true, 4},
		{"int x float", ints(1, 2, 3), floats(1, 2.5, 3, 3), false, 3},
		{"float x int", floats(1, 2.5, 3), ints(3, 1, 1), false, 3},
		{"float x float", floats(0.5, 1.5, 0.5), floats(0.5, 2, 0.5), false, 4},
		{"varchar x varchar", []storage.Value{sv("a"), sv("b"), sv("")}, []storage.Value{sv("b"), sv(""), sv("b"), sv("c")}, false, 3},
		{"varchar x int", []storage.Value{sv("1"), sv("x")}, ints(1, 1), false, 2},
		{"null on the left", []storage.Value{iv(1), null, iv(2)}, ints(1, 2, 2), false, 3},
		{"null on the right", ints(1, 2), []storage.Value{iv(2), null, iv(1), null}, false, 2},
		{"null on both sides", []storage.Value{null, iv(1)}, []storage.Value{null, null, iv(1)}, false, 3},
		{"empty left", nil, ints(1, 2), true, 0},
		{"empty right", ints(1, 2), nil, true, 0},
		{"both empty", nil, nil, true, 0},
		{"no key in common", ints(1, 2), ints(3, 4), true, 0},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			a, b := newTwinStacks(t)
			// The key is the left rows' first column and the right rows'
			// second; the other column numbers the row.
			var left, right []storage.Row
			for i, k := range c.left {
				left = append(left, storage.Row{k, iv(int64(i))})
			}
			for i, k := range c.right {
				right = append(right, storage.Row{sv(fmt.Sprint("r", i)), k})
			}
			j := &joinPlan{lcol: 0, rcol: 1, width: 40}
			ctxA := &Ctx{Task: a.task}
			ctxB := &Ctx{Task: b.task}
			a.ts.BeginEvent(a.task, tscout.SubsystemExecutionEngine)
			b.ts.BeginEvent(b.task, tscout.SubsystemExecutionEngine)
			got := a.engine.hashJoin(ctxA, left, right, j, 2)
			want := oracleHashJoin(b.engine, ctxB, left, right, j)
			if len(got) != c.matches || len(want) != c.matches {
				t.Fatalf("%d joined rows, oracle %d, want %d", len(got), len(want), c.matches)
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("joined row %d is %v, oracle %v", i, got[i], want[i])
				}
			}
			if typed := ctxA.join.head != nil; typed != c.typed {
				t.Errorf("typed join table used: %v, want %v", typed, c.typed)
			}
			checkTwins(t, a, b)
		})
	}
}

// TestFusedSelectLeavesOtherSessionsMarkers: a fused select turns its own
// operators' markers off, nobody else's. One goroutine runs fused selects
// while another, on the same Engine, runs UPDATEs whose index_scan, filter
// and update OUs must each produce their training point. (Run under -race:
// the bit used to be a write to the shared Engine.)
func TestFusedSelectLeavesOtherSessionsMarkers(t *testing.T) {
	db := newTestDB(t, true)
	db.seed(t, 20)
	db.engine.FuseSimpleSelects = true
	db.drainPoints(t)

	sel, err := db.engine.Prepare(mustParse(t, "SELECT id FROM accounts WHERE balance >= 110"))
	if err != nil {
		t.Fatal(err)
	}
	upd, err := db.engine.Prepare(mustParse(t, "UPDATE branches SET total = total + 1 WHERE id = $1"))
	if err != nil {
		t.Fatal(err)
	}
	const updates = 200
	updater := db.k.NewTask("updater")
	session := func(task *kernel.Task, p *Prepared, n int, params func(i int) []storage.Value) {
		ctx := &Ctx{Task: task}
		for i := 0; i < n; i++ {
			ctx.Txn = db.mgr.Begin()
			db.ts.BeginEvent(task, tscout.SubsystemExecutionEngine)
			if _, err := db.engine.Run(ctx, p, params(i)); err != nil {
				t.Error(err)
				return
			}
			if _, err := ctx.Txn.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		session(db.task, sel, 4*updates, func(int) []storage.Value { return nil })
	}()
	go func() {
		defer wg.Done()
		session(updater, upd, updates, func(i int) []storage.Value {
			return []storage.Value{storage.NewInt(int64(i % 5))}
		})
	}()
	// 1 400 samples in all: the ring (4 096) holds them until the drain.
	wg.Wait()

	fired := map[string]int{}
	for _, p := range db.drainPoints(t) {
		if p.PID == updater.PID {
			fired[p.OUName]++
		}
	}
	for _, ou := range []string{"index_scan", "filter", "update"} {
		if fired[ou] != updates {
			t.Errorf("%d UPDATEs beside a fused select produced %d %s points", updates, fired[ou], ou)
		}
	}
}
