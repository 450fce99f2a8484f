package exec_test

import (
	"math/rand"
	"testing"

	"tscout/internal/dbms"
	"tscout/internal/exec"
	"tscout/internal/storage"
	"tscout/internal/workload"
)

// TestPreparedMatchesOracleOnWorkloads runs 300 transactions of each
// benchmark generator through a server's sessions — statement table,
// Prepare, Run — and holds every statement's result to the spec, run in
// lockstep over a model of the tables the generator set up. The generators
// never abort, so where a case names an undo statement, every fifth
// transaction is followed by one that runs it on one of a few hot rows and
// rolls back: the model must roll it back too, and the engine must leave
// no trace of it that a later writer of the row would trip on.
func TestPreparedMatchesOracleOnWorkloads(t *testing.T) {
	for _, c := range []struct {
		gen  workload.Generator
		undo string // one $1 row key, drawn from [0, keys)
		keys int
	}{
		{gen: &workload.TATP{Subscribers: 200}},
		{&workload.TPCC{}, "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = 1 AND d_id = $1 + 1", 10},
		{&workload.SmallBank{Customers: 200}, "UPDATE checking SET bal = bal + 1 WHERE custid = $1", 10},
		{gen: &workload.YCSB{Records: 200}},
		{gen: &workload.CHBench{}},
	} {
		gen := c.gen
		t.Run(gen.Name(), func(t *testing.T) {
			srv, err := dbms.NewServer(dbms.Config{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if err := gen.Setup(srv); err != nil {
				t.Fatal(err)
			}
			lock := exec.NewLockstep(t, srv.Engine, srv.Catalog, srv.TxnMgr)
			se := srv.NewSession()
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 300; i++ {
				if _, err := gen.Txn(se, rng); err != nil && !dbms.IsConflict(err) {
					t.Fatalf("txn %d: %v", i, err)
				}
				if c.undo == "" || i%5 != 0 {
					continue
				}
				if err := se.BeginTxn(); err != nil {
					t.Fatal(err)
				}
				if _, err := se.Statement(c.undo, storage.NewInt(int64(rng.Intn(c.keys)))); err != nil {
					t.Fatalf("undo after txn %d: %v", i, err)
				}
				if err := se.Rollback(); err != nil {
					t.Fatal(err)
				}
			}
			lock.Close()
			if lock.Statements < 300 {
				t.Fatalf("only %d statements observed", lock.Statements)
			}
			t.Logf("%d statements", lock.Statements)
		})
	}
}
