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
// Prepare, Run — and holds every statement's bound access paths,
// projection and Result to the oracle's, executed in lockstep on a second
// server loaded by the same generator.
func TestPreparedMatchesOracleOnWorkloads(t *testing.T) {
	for _, gens := range [][2]workload.Generator{
		{&workload.TATP{Subscribers: 200}, &workload.TATP{Subscribers: 200}},
		{&workload.TPCC{}, &workload.TPCC{}},
		{&workload.SmallBank{Customers: 200}, &workload.SmallBank{Customers: 200}},
		{&workload.YCSB{Records: 200}, &workload.YCSB{Records: 200}},
		{&workload.CHBench{}, &workload.CHBench{}},
	} {
		gen, twin := gens[0], gens[1]
		t.Run(gen.Name(), func(t *testing.T) {
			var servers [2]*dbms.Server
			for i, g := range []workload.Generator{gen, twin} {
				srv, err := dbms.NewServer(dbms.Config{Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				if err := g.Setup(srv); err != nil {
					t.Fatal(err)
				}
				servers[i] = srv
			}
			a, b := servers[0], servers[1]
			lock := exec.NewLockstep(t, a.Engine, b.Engine, b.TxnMgr, b.Kernel.NewTask("oracle"))
			se := a.NewSession()
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
