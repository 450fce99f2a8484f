package exec

import (
	"bytes"
	"strings"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/catalog"
	"tscout/internal/kernel"
	"tscout/internal/sim"
	"tscout/internal/sql"
	"tscout/internal/storage"
	"tscout/internal/tscout"
	"tscout/internal/txn"
)

type testDB struct {
	cat    *catalog.Catalog
	engine *Engine
	mgr    *txn.Manager
	k      *kernel.Kernel
	ts     *tscout.TScout
	task   *kernel.Task

	// The instrumented deployment's training archive (its Processor sink).
	arch bytes.Buffer
	sink *archive.Writer
}

// newEmptyTestDB assembles kernel, catalog, engine and (instrumented) a
// deployed TScout sampling at 100 % into an archive, with no tables yet.
func newEmptyTestDB(t testing.TB, instrumented bool) *testDB {
	t.Helper()
	return newTestStack(t, catalog.New(), txn.NewManager(), 1, 0, instrumented)
}

// newTestStack is newEmptyTestDB over a given catalog and transaction
// manager (several stacks may share them), with the kernel's seed and noise.
func newTestStack(t testing.TB, cat *catalog.Catalog, mgr *txn.Manager, seed int64, sigma float64, instrumented bool) *testDB {
	t.Helper()
	k := kernel.New(sim.LargeHW, seed, sigma)
	db := &testDB{cat: cat, mgr: mgr, k: k, task: k.NewTask("w")}
	var ts *tscout.TScout
	if instrumented {
		db.sink = archive.NewWriter(&db.arch)
		ts = tscout.New(k, tscout.Config{Seed: 4, ProcessorSink: db.sink})
	}
	eng, err := New(cat, ts)
	if err != nil {
		t.Fatal(err)
	}
	if ts != nil {
		if err := ts.Deploy(); err != nil {
			t.Fatal(err)
		}
		ts.Sampler().SetAllRates(100)
	}
	db.engine, db.ts = eng, ts
	return db
}

func newTestDB(t *testing.T, instrumented bool) *testDB {
	t.Helper()
	db := newEmptyTestDB(t, instrumented)
	cat := db.cat

	// accounts(id INT PK btree, branch INT, balance FLOAT, name VARCHAR hash)
	_, err := cat.CreateTable("accounts", storage.MustSchema(
		storage.Column{Name: "id", Kind: storage.KindInt},
		storage.Column{Name: "branch", Kind: storage.KindInt},
		storage.Column{Name: "balance", Kind: storage.KindFloat},
		storage.Column{Name: "name", Kind: storage.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateBTreeIndex("accounts_pk", "accounts", []string{"id"}, []uint{32}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateHashIndex("accounts_name", "accounts", []string{"name"}, false); err != nil {
		t.Fatal(err)
	}
	// branches(id INT PK, total FLOAT)
	if _, err := cat.CreateTable("branches", storage.MustSchema(
		storage.Column{Name: "id", Kind: storage.KindInt},
		storage.Column{Name: "total", Kind: storage.KindFloat},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateBTreeIndex("branches_pk", "branches", []string{"id"}, []uint{32}, true); err != nil {
		t.Fatal(err)
	}
	return db
}

// drainPoints drains the rings and returns the training points archived
// since the previous call.
func (db *testDB) drainPoints(t testing.TB) []tscout.TrainingPoint {
	t.Helper()
	db.ts.Processor().Drain(tscout.DrainOptions{})
	if err := db.sink.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(db.arch.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := r.Points()
	if err != nil {
		t.Fatal(err)
	}
	db.arch.Reset()
	return pts
}

// run executes SQL in a fresh committed transaction.
func (db *testDB) run(t *testing.T, q string, params ...storage.Value) *Result {
	t.Helper()
	res, err := db.tryRun(q, params...)
	if err != nil {
		t.Fatalf("run %q: %v", q, err)
	}
	return res
}

func (db *testDB) tryRun(q string, params ...storage.Value) (*Result, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	tx := db.mgr.Begin()
	if db.ts != nil {
		db.ts.BeginEvent(db.task, tscout.SubsystemExecutionEngine)
	}
	res, err := db.engine.Execute(&Ctx{Task: db.task, Txn: tx}, stmt, params)
	if err != nil {
		tx.Abort()
		return nil, err
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	return res, nil
}

func (db *testDB) seed(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		db.run(t, "INSERT INTO accounts VALUES ($1, $2, $3, $4)",
			storage.NewInt(int64(i)), storage.NewInt(int64(i%5)),
			storage.NewFloat(float64(100+i)), storage.NewString("acct"+string(rune('a'+i%26))))
	}
	for b := 0; b < 5; b++ {
		db.run(t, "INSERT INTO branches VALUES ($1, $2)",
			storage.NewInt(int64(b)), storage.NewFloat(float64(1000*b)))
	}
}

func TestInsertAndPointSelect(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 50)
	res := db.run(t, "SELECT balance FROM accounts WHERE id = 7")
	if len(res.Rows) != 1 || res.Rows[0][0].AsFloat() != 107 {
		t.Fatalf("point select: %+v", res.Rows)
	}
	if res.Cols[0] != "balance" {
		t.Fatalf("cols: %v", res.Cols)
	}
}

func TestSeqScanWithFilter(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 50)
	res := db.run(t, "SELECT id FROM accounts WHERE balance >= 140 AND branch = 0")
	// ids with id>=40 and id%5==0: 40, 45.
	if len(res.Rows) != 2 {
		t.Fatalf("filter: %+v", res.Rows)
	}
}

func TestSelectStar(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 3)
	res := db.run(t, "SELECT * FROM accounts WHERE id = 1")
	if len(res.Cols) != 4 || len(res.Rows[0]) != 4 {
		t.Fatalf("star: %v", res.Cols)
	}
}

func TestUpdateWithExpression(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 10)
	res := db.run(t, "UPDATE accounts SET balance = balance + $1 WHERE id = 3", storage.NewFloat(50))
	if res.Affected != 1 {
		t.Fatalf("affected: %d", res.Affected)
	}
	got := db.run(t, "SELECT balance FROM accounts WHERE id = 3")
	if got.Rows[0][0].AsFloat() != 153 {
		t.Fatalf("update: %+v", got.Rows)
	}
}

func TestUpdateKeyColumnIndexConsistency(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 10)
	db.run(t, "UPDATE accounts SET id = 100 WHERE id = 4")
	if res := db.run(t, "SELECT * FROM accounts WHERE id = 4"); len(res.Rows) != 0 {
		t.Fatalf("old key must not match visible row: %+v", res.Rows)
	}
	if res := db.run(t, "SELECT balance FROM accounts WHERE id = 100"); len(res.Rows) != 1 || res.Rows[0][0].AsFloat() != 104 {
		t.Fatalf("new key must find the row: %+v", res.Rows)
	}
}

func TestDeleteAndTombstoneFiltering(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 10)
	res := db.run(t, "DELETE FROM accounts WHERE id = 5")
	if res.Affected != 1 {
		t.Fatalf("affected: %d", res.Affected)
	}
	if got := db.run(t, "SELECT * FROM accounts WHERE id = 5"); len(got.Rows) != 0 {
		t.Fatalf("deleted row visible: %+v", got.Rows)
	}
	if got := db.run(t, "SELECT COUNT(*) FROM accounts"); got.Rows[0][0].AsInt() != 9 {
		t.Fatalf("count after delete: %+v", got.Rows)
	}
}

func TestAggregates(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 20)
	res := db.run(t, "SELECT COUNT(*), SUM(balance), MIN(balance), MAX(balance), AVG(balance) FROM accounts")
	row := res.Rows[0]
	if row[0].AsInt() != 20 {
		t.Fatalf("count: %v", row)
	}
	wantSum := 0.0
	for i := 0; i < 20; i++ {
		wantSum += float64(100 + i)
	}
	if row[1].AsFloat() != wantSum || row[2].AsFloat() != 100 || row[3].AsFloat() != 119 {
		t.Fatalf("aggs: %v", row)
	}
	if row[4].AsFloat() != wantSum/20 {
		t.Fatalf("avg: %v", row)
	}
}

func TestGroupBy(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 20)
	res := db.run(t, "SELECT branch, COUNT(*) FROM accounts GROUP BY branch ORDER BY branch")
	if len(res.Rows) != 5 {
		t.Fatalf("groups: %+v", res.Rows)
	}
	for i, row := range res.Rows {
		if row[0].AsInt() != int64(i) || row[1].AsInt() != 4 {
			t.Fatalf("group %d: %v", i, row)
		}
	}
	// Non-grouped column must be rejected.
	if _, err := db.tryRun("SELECT balance, COUNT(*) FROM accounts GROUP BY branch"); err == nil ||
		!strings.Contains(err.Error(), "GROUP BY") {
		t.Fatalf("must require grouping: %v", err)
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	db := newTestDB(t, false)
	res := db.run(t, "SELECT COUNT(*), SUM(balance) FROM accounts")
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("count empty: %v", res.Rows)
	}
}

func TestOrderByLimitDesc(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 20)
	res := db.run(t, "SELECT id, balance FROM accounts ORDER BY balance DESC LIMIT 3")
	if len(res.Rows) != 3 || res.Rows[0][0].AsInt() != 19 || res.Rows[2][0].AsInt() != 17 {
		t.Fatalf("order/limit: %+v", res.Rows)
	}
}

func TestHashJoin(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 20)
	res := db.run(t, `SELECT a.id, b.total FROM accounts a
		JOIN branches b ON a.branch = b.id WHERE a.id < 4`)
	if len(res.Rows) != 4 {
		t.Fatalf("join rows: %+v", res.Rows)
	}
	for _, row := range res.Rows {
		if row[1].AsFloat() != float64(1000*(row[0].AsInt()%5)) {
			t.Fatalf("join values: %v", row)
		}
	}
}

func TestJoinWithGroupBy(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 20)
	res := db.run(t, `SELECT b.id, SUM(a.balance) FROM accounts a
		JOIN branches b ON a.branch = b.id GROUP BY b.id ORDER BY b.id`)
	if len(res.Rows) != 5 {
		t.Fatalf("join+group: %+v", res.Rows)
	}
}

func TestHashIndexLookup(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 30)
	res := db.run(t, "SELECT id FROM accounts WHERE name = 'accta'")
	// i%26==0 for i in 0..29: 0, 26.
	if len(res.Rows) != 2 {
		t.Fatalf("hash lookup: %+v", res.Rows)
	}
}

func TestParamBindingErrors(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 5)
	if _, err := db.tryRun("SELECT * FROM accounts WHERE id = $2", storage.NewInt(1)); err == nil {
		t.Fatalf("unbound param must fail")
	}
	if _, err := db.tryRun("SELECT * FROM nosuch WHERE id = 1"); err == nil {
		t.Fatalf("unknown table must fail")
	}
	if _, err := db.tryRun("SELECT zzz FROM accounts"); err == nil {
		t.Fatalf("unknown column must fail")
	}
	if _, err := db.tryRun("INSERT INTO accounts (id) VALUES (1, 2)"); err == nil {
		t.Fatalf("arity mismatch must fail")
	}
	if _, err := db.tryRun("INSERT INTO accounts (zzz) VALUES (1)"); err == nil {
		t.Fatalf("unknown insert column must fail")
	}
	if _, err := db.tryRun("UPDATE accounts SET zzz = 1"); err == nil {
		t.Fatalf("unknown set column must fail")
	}
}

func TestSnapshotIsolationAcrossEngine(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 5)
	// Open a snapshot, then update through another txn.
	oldTx := db.mgr.Begin()
	db.run(t, "UPDATE accounts SET balance = 999 WHERE id = 1")
	res, err := db.engine.Execute(&Ctx{Task: db.task, Txn: oldTx},
		mustParse(t, "SELECT balance FROM accounts WHERE id = 1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsFloat() != 101 {
		t.Fatalf("old snapshot must see old balance: %+v", res.Rows)
	}
	oldTx.Abort()
}

func mustParse(t testing.TB, q string) sql.Statement {
	t.Helper()
	s, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInstrumentedQueryEmitsOUTrainingData(t *testing.T) {
	db := newTestDB(t, true)
	db.seed(t, 20)
	db.ts.Processor().Reset()
	db.run(t, "SELECT id FROM accounts WHERE balance >= 110 ORDER BY id LIMIT 5")
	pts := db.drainPoints(t)
	names := map[string]bool{}
	for _, p := range pts {
		names[p.OUName] = true
	}
	for _, want := range []string{"seq_scan", "filter", "sort", "output"} {
		if !names[want] {
			t.Fatalf("missing OU %s in %v", want, names)
		}
	}
	// Index scans for point queries.
	db.ts.Processor().Reset()
	db.run(t, "SELECT id FROM accounts WHERE id = 3")
	found := false
	for _, p := range db.drainPoints(t) {
		if p.OUName == "index_scan" {
			found = true
			if p.Features[1] < 1 {
				t.Fatalf("tree height feature: %+v", p)
			}
		}
	}
	if !found {
		t.Fatalf("point query must use the index scan OU")
	}
	if errs := db.ts.CollectorFor(tscout.SubsystemExecutionEngine).ErrorCount(); errs != 0 {
		t.Fatalf("marker state errors: %d", errs)
	}
}

func TestFusedPipelineEmitsVectorizedFeatures(t *testing.T) {
	db := newTestDB(t, true)
	db.seed(t, 20)
	db.engine.FuseSimpleSelects = true
	db.ts.Processor().Reset()
	db.run(t, "SELECT id FROM accounts WHERE id = 3")
	pts := db.drainPoints(t)
	// The fused sample expands into per-OU points (index_scan + output).
	names := map[string]int{}
	for _, p := range pts {
		names[p.OUName]++
	}
	if names["index_scan"] != 1 || names["output"] != 1 {
		t.Fatalf("fused expansion: %v", names)
	}
	if names["fused_pipeline"] != 0 {
		t.Fatalf("the pipeline itself is not a training point: %v", names)
	}
	// Correctness unchanged.
	res := db.run(t, "SELECT balance FROM accounts WHERE id = 3")
	if res.Rows[0][0].AsFloat() != 103 {
		t.Fatalf("fused result: %+v", res.Rows)
	}
}

func TestQueryChargesVirtualTime(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 100)
	before := db.task.Now()
	db.run(t, "SELECT COUNT(*) FROM accounts")
	seqCost := db.task.Now() - before

	before = db.task.Now()
	db.run(t, "SELECT * FROM accounts WHERE id = 5")
	pointCost := db.task.Now() - before
	if seqCost <= pointCost {
		t.Fatalf("scanning 100 rows must cost more than a point probe: %d vs %d", seqCost, pointCost)
	}
}

func TestWorkingSetCacheEffectAcrossHardware(t *testing.T) {
	// The same scan must take longer on SmallHW once the table exceeds
	// its L3 (paper §6.4). Build a table larger than SmallHW's 12MB L3.
	cost := func(profile sim.HardwareProfile) int64 {
		k := kernel.New(profile, 1, 0)
		cat := catalog.New()
		eng, _ := New(cat, nil)
		mgr := txn.NewManager()
		task := k.NewTask("w")
		_, _ = cat.CreateTable("big", storage.MustSchema(
			storage.Column{Name: "id", Kind: storage.KindInt},
			storage.Column{Name: "pad", Kind: storage.KindString, FixedBytes: 1000},
		))
		tx := mgr.Begin()
		tbl, _ := cat.Table("big")
		for i := 0; i < 20000; i++ { // ~20 MB
			_, _ = tx.Insert(tbl.Heap, storage.Row{
				storage.NewInt(int64(i)), storage.NewString("x")})
		}
		tx.Commit()
		tx2 := mgr.Begin()
		before := task.Now()
		_, err := eng.Execute(&Ctx{Task: task, Txn: tx2},
			mustParse(t, "SELECT COUNT(*) FROM big"), nil)
		if err != nil {
			t.Fatal(err)
		}
		tx2.Commit()
		return task.Now() - before
	}
	large := cost(sim.LargeHW)
	small := cost(sim.SmallHW)
	if small <= large {
		t.Fatalf("out-of-L3 scan must be slower on SmallHW: %d vs %d", small, large)
	}
}
