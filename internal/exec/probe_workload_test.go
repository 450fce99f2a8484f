package exec_test

import (
	"fmt"
	"testing"

	"tscout/internal/dbms"
	"tscout/internal/exec"
	"tscout/internal/workload"
)

// TestIndexProbesMatchScans runs TPC-C and TATP on the single-clock driver
// and on the pooled driver at one and at eight CPUs, and holds sampled
// index probes, under the snapshot of the statement that made each and
// under older ones the oracle keeps open, to a sequential scan under the
// same snapshot (exec.ProbeOracle). Delivery's new_order DELETE and TATP's
// call_forwarding DELETE and aborted INSERTs take entries out of their
// indexes while those older snapshots still read the rows, so an entry
// that leaves before the last of them has ended shows as a probe that
// misses a row.
func TestIndexProbesMatchScans(t *testing.T) {
	for _, gen := range []func() workload.Generator{
		func() workload.Generator {
			return &workload.TPCC{Warehouses: 1, CustomersPerDistrict: 10, Items: 100, InitialOrdersPerDistrict: 10}
		},
		func() workload.Generator { return &workload.TATP{Subscribers: 50} },
	} {
		for _, d := range []struct{ cpus, pool int }{{1, 0}, {1, 8}, {8, 8}} {
			g := gen()
			t.Run(fmt.Sprintf("%s/cpus=%d/pool=%d", g.Name(), d.cpus, d.pool), func(t *testing.T) {
				t.Parallel()
				srv, err := dbms.NewServer(dbms.Config{Seed: 9, NumCPUs: d.cpus})
				if err != nil {
					t.Fatal(err)
				}
				if err := g.Setup(srv); err != nil {
					t.Fatal(err)
				}
				o := exec.NewProbeOracle(t, srv.Engine, srv.TxnMgr, 2)
				res, err := workload.Run(srv, g, workload.Config{
					Terminals: 24, Transactions: 600, Seed: 9, PoolSessions: d.pool,
				})
				if err != nil {
					t.Fatal(err)
				}
				o.Close()
				t.Logf("%d completed, %d aborted; %d probes checked, %d rows", res.Completed, res.Aborted, o.Probes, o.Rows)
				if o.Probes < 200 {
					t.Fatalf("only %d probes checked", o.Probes)
				}
			})
		}
	}
}
