package exec_test

import (
	"math/rand"
	"testing"

	"tscout/internal/dbms"
	"tscout/internal/exec"
	"tscout/internal/workload"
)

// TestPreparedMatchesOracleOnWorkloads runs 300 transactions of each
// benchmark generator through a server's sessions — statement table,
// Prepare, Run — and holds every statement's result to the spec, run in
// lockstep over a model of the tables the generator set up.
func TestPreparedMatchesOracleOnWorkloads(t *testing.T) {
	for _, gen := range []workload.Generator{
		&workload.TATP{Subscribers: 200},
		&workload.TPCC{},
		&workload.SmallBank{Customers: 200},
		&workload.YCSB{Records: 200},
		&workload.CHBench{},
	} {
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
			}
			lock.Close()
			if lock.Statements < 300 {
				t.Fatalf("only %d statements observed", lock.Statements)
			}
			t.Logf("%d statements", lock.Statements)
		})
	}
}
