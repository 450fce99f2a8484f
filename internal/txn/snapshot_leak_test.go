package txn_test

import (
	"fmt"
	"testing"

	"tscout/internal/dbms"
	"tscout/internal/network"
	"tscout/internal/storage"
	"tscout/internal/wal"
	"tscout/internal/workload"
)

// TestWorkloadsLeaveNoSnapshotOpen runs each of the five generators on both
// drivers and requires the Manager's running list to be empty afterwards. A
// transaction that is begun and never finished would hold the watermark at
// its snapshot for the life of the server, and nothing else would notice:
// every version committed after it would simply stay.
func TestWorkloadsLeaveNoSnapshotOpen(t *testing.T) {
	gens := []func() workload.Generator{
		func() workload.Generator { return &workload.YCSB{Records: 300} },
		func() workload.Generator { return &workload.SmallBank{Customers: 100} },
		func() workload.Generator { return &workload.TATP{Subscribers: 200} },
		func() workload.Generator {
			return &workload.TPCC{Warehouses: 1, CustomersPerDistrict: 10, Items: 100, InitialOrdersPerDistrict: 10}
		},
		func() workload.Generator {
			return &workload.CHBench{TPCC: workload.TPCC{
				Warehouses: 1, CustomersPerDistrict: 10, Items: 100, InitialOrdersPerDistrict: 10}}
		},
	}
	for _, pool := range []int{0, 3} {
		for _, mk := range gens {
			gen := mk()
			t.Run(fmt.Sprintf("%s/pool%d", gen.Name(), pool), func(t *testing.T) {
				srv, err := dbms.NewServer(dbms.Config{
					Seed: 5, NumCPUs: 2,
					WAL: wal.Config{GroupSize: 8, FlushIntervalNS: 100_000},
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := gen.Setup(srv); err != nil {
					t.Fatal(err)
				}
				if running, oldest := srv.TxnMgr.Stats(); running != 0 {
					t.Fatalf("setup left %d transactions running, oldest snapshot %d", running, oldest)
				}
				res, err := workload.Run(srv, gen, workload.Config{
					Terminals: 6, Transactions: 300, Seed: 11, PoolSessions: pool,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Completed+res.Aborted != 300 {
					t.Fatalf("budget: %+v", res)
				}
				running, oldest := srv.TxnMgr.Stats()
				if running != 0 {
					t.Fatalf("%d transactions still running after the run (%d aborted), oldest snapshot %d",
						running, res.Aborted, oldest)
				}
				t.Logf("completed %d aborted %d", res.Completed, res.Aborted)
			})
		}
	}
}

// TestFailedStatementsLeaveNoSnapshotOpen walks the error path of each of
// the session's three entry points: a Statement that fails analysis and one
// that loses a write conflict, then a packet and an Execute that meet the
// same conflict. Each must end the transaction it ran in, and only that one.
func TestFailedStatementsLeaveNoSnapshotOpen(t *testing.T) {
	srv, err := dbms.NewServer(dbms.Config{Seed: 1, WAL: wal.Config{GroupSize: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Catalog.CreateTable("kv", storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt},
		storage.Column{Name: "v", Kind: storage.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	running := func(want int, after string) {
		t.Helper()
		if got, oldest := srv.TxnMgr.Stats(); got != want {
			t.Fatalf("after %s: %d transactions running (oldest snapshot %d), want %d", after, got, oldest, want)
		}
	}
	a, b := srv.NewSession(), srv.NewSession()
	if _, err := a.Execute("INSERT INTO kv VALUES (1, 10)"); err != nil {
		t.Fatal(err)
	}
	running(0, "Execute")

	if err := a.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Statement("SELECT v FROM missing"); err == nil {
		t.Fatal("statement on a missing table succeeded")
	}
	running(0, "a statement that fails analysis")

	for _, se := range []*dbms.Session{a, b} {
		if err := se.BeginTxn(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Statement("UPDATE kv SET v = 11 WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Statement("UPDATE kv SET v = 12 WHERE k = 1"); !dbms.IsConflict(err) {
		t.Fatalf("second writer: %v, want a write conflict", err)
	}
	running(1, "a lost write conflict")
	if _, err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	running(0, "Commit")

	// The same conflict met at execution time by the two one-shot paths.
	if err := b.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Statement("UPDATE kv SET v = 12 WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	if pr := a.SubmitPacket(network.EncodeScript("SELECT v FROM kv", "UPDATE kv SET v = 13 WHERE k = 1")); !dbms.IsConflict(pr.Err) {
		t.Fatalf("packet under a conflict: err %v", pr.Err)
	}
	running(1, "an aborted packet")
	if _, err := a.Execute("UPDATE kv SET v = 14 WHERE k = 1"); !dbms.IsConflict(err) {
		t.Fatalf("Execute under a conflict: %v", err)
	}
	running(1, "a failed Execute")
	if err := b.Rollback(); err != nil {
		t.Fatal(err)
	}
	running(0, "Rollback")
}
