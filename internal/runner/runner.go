// Package runner implements NoisePage-style offline runners (paper §2.4):
// targeted microbenchmarks that sweep each operating unit's input
// dimensions in isolation to generate offline training data. By
// construction the runners have the weaknesses the paper documents — a
// single client (no contention) and one transaction per WAL flush (no
// group-commit amortization) — which is why online data beats them for the
// workload-dependent subsystems.
package runner

import (
	"fmt"

	"tscout/internal/dbms"
	"tscout/internal/network"
	"tscout/internal/storage"
	"tscout/internal/tscout"
)

// Config tunes sweep density.
type Config struct {
	// Scale multiplies sweep sizes (default 1). Larger scales generate
	// more offline data.
	Scale int
}

// repetitions is how many times each sweep point runs at scale 1.
const repetitions = 3

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// tableSizes are the scan-sweep table cardinalities.
var tableSizes = []int{16, 64, 256, 1024, 4096}

// RunAll executes every runner against an instrumented server. The server
// should be configured for offline collection: one client and a
// synchronous WAL (the experiment harness sets both). Training data lands
// in the server's TScout Processor.
func RunAll(srv *dbms.Server, cfg Config) error {
	if srv.TS == nil {
		return fmt.Errorf("runner: server is not instrumented")
	}
	cfg = cfg.withDefaults()
	srv.TS.Sampler().SetAllRates(100)

	if err := setupTables(srv); err != nil {
		return err
	}
	se := srv.NewSession()
	steps := []func(*dbms.Server, *dbms.Session, Config) error{
		sweepScans, sweepIndexLookups, sweepInserts, sweepUpdatesDeletes,
		sweepJoinsSortsAggs, sweepNetworking, sweepWAL,
	}
	for _, step := range steps {
		if err := step(srv, se, cfg); err != nil {
			return err
		}
		srv.TS.Processor().Drain(tscout.DrainOptions{})
	}
	return nil
}

func runnerTable(size int) string { return fmt.Sprintf("runner_t%d", size) }

func setupTables(srv *dbms.Server) error {
	for _, size := range tableSizes {
		name := runnerTable(size)
		if _, err := srv.Catalog.Table(name); err == nil {
			continue // already created by an earlier runner pass
		}
		if _, err := srv.Catalog.CreateTable(name, storage.MustSchema(
			storage.Column{Name: "id", Kind: storage.KindInt},
			storage.Column{Name: "a", Kind: storage.KindInt},
			storage.Column{Name: "b", Kind: storage.KindFloat},
			storage.Column{Name: "pad", Kind: storage.KindString, FixedBytes: 100},
		)); err != nil {
			return err
		}
		if _, err := srv.Catalog.CreateBTreeIndex(name+"_pk", name,
			[]string{"id"}, []uint{32}, true); err != nil {
			return err
		}
		tblEntry, err := srv.Catalog.Table(name)
		if err != nil {
			return err
		}
		tx := srv.TxnMgr.Begin()
		for i := 0; i < size; i++ {
			row := storage.Row{
				storage.NewInt(int64(i)), storage.NewInt(int64(i % 97)),
				storage.NewFloat(float64(i) / 3), storage.NewString("p"),
			}
			tid, err := tx.Insert(tblEntry.Heap, row)
			if err != nil {
				_ = tx.Abort()
				return err
			}
			for _, ix := range tblEntry.Indexes {
				ix.Insert(ix.KeyFor(row), tid)
			}
		}
		if _, err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// one runs a single read-only statement transaction.
func one(se *dbms.Session, q string, params ...storage.Value) error {
	if err := se.BeginTxn(); err != nil {
		return err
	}
	if _, err := se.Statement(q, params...); err != nil {
		return err
	}
	c, err := se.Commit()
	if err != nil {
		return err
	}
	if c != nil && c.Resolved {
		se.Task.Clock.AdvanceTo(c.DoneNS)
	}
	return nil
}

func sweepScans(srv *dbms.Server, se *dbms.Session, cfg Config) error {
	for _, size := range tableSizes {
		t := runnerTable(size)
		for r := 0; r < repetitions*cfg.Scale; r++ {
			if err := one(se, "SELECT COUNT(*) FROM "+t); err != nil {
				return err
			}
			if err := one(se, "SELECT * FROM "+t); err != nil {
				return err
			}
			// Filter selectivity sweep.
			for _, sel := range []int64{10, 50, 90} {
				if err := one(se, "SELECT id FROM "+t+" WHERE a >= $1",
					storage.NewInt(sel)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func sweepIndexLookups(srv *dbms.Server, se *dbms.Session, cfg Config) error {
	for _, size := range tableSizes {
		t := runnerTable(size)
		for r := 0; r < repetitions*cfg.Scale; r++ {
			for i := 0; i < 8; i++ {
				key := int64(i * size / 8)
				if err := one(se, "SELECT b FROM "+t+" WHERE id = $1",
					storage.NewInt(key)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func sweepInserts(srv *dbms.Server, se *dbms.Session, cfg Config) error {
	t := runnerTable(tableSizes[0])
	next := int64(1 << 20) // above the loaded key range
	for r := 0; r < repetitions*cfg.Scale; r++ {
		for _, batch := range []int{1, 2, 4, 8} {
			if err := se.BeginTxn(); err != nil {
				return err
			}
			for i := 0; i < batch; i++ {
				if _, err := se.Statement(
					"INSERT INTO "+t+" VALUES ($1, 1, 1.0, 'p')",
					storage.NewInt(next)); err != nil {
					return err
				}
				next++
			}
			if c, err := se.Commit(); err != nil {
				return err
			} else if c != nil && c.Resolved {
				se.Task.Clock.AdvanceTo(c.DoneNS)
			}
		}
	}
	return nil
}

func sweepUpdatesDeletes(srv *dbms.Server, se *dbms.Session, cfg Config) error {
	t := runnerTable(tableSizes[2])
	for r := 0; r < repetitions*cfg.Scale; r++ {
		for i := 0; i < 6; i++ {
			if err := one(se, "UPDATE "+t+" SET b = b + 1.5 WHERE id = $1",
				storage.NewInt(int64(i*13%tableSizes[2]))); err != nil {
				return err
			}
		}
		if err := one(se, "DELETE FROM "+t+" WHERE id = $1",
			storage.NewInt(int64(1<<19))); err != nil { // deletes nothing
			return err
		}
	}
	return nil
}

func sweepJoinsSortsAggs(srv *dbms.Server, se *dbms.Session, cfg Config) error {
	small, mid := runnerTable(tableSizes[0]), runnerTable(tableSizes[1])
	for r := 0; r < repetitions*cfg.Scale; r++ {
		if err := one(se, fmt.Sprintf(
			"SELECT x.id, y.b FROM %s x JOIN %s y ON x.a = y.a WHERE x.id < 8", small, mid)); err != nil {
			return err
		}
		for _, size := range tableSizes[:3] {
			t := runnerTable(size)
			if err := one(se, "SELECT id, b FROM "+t+" ORDER BY b DESC LIMIT 20"); err != nil {
				return err
			}
			if err := one(se, "SELECT a, COUNT(*), AVG(b) FROM "+t+" GROUP BY a"); err != nil {
				return err
			}
		}
	}
	return nil
}

func sweepNetworking(srv *dbms.Server, se *dbms.Session, cfg Config) error {
	// Packet-size and message-count sweeps through the wire path.
	for r := 0; r < repetitions*cfg.Scale; r++ {
		for _, pad := range []int{0, 64, 256, 1024} {
			q := "SELECT COUNT(*) FROM " + runnerTable(tableSizes[0]) +
				" -- " + string(make([]byte, 0))
			for i := 0; i < pad; i += 8 {
				q += "padpad__"
			}
			pr := se.SubmitPacket(network.EncodeQuery(q))
			if pr.Err != nil {
				return pr.Err
			}
		}
		for _, nmsg := range []int{1, 2, 4, 8} {
			qs := make([]string, nmsg)
			for i := range qs {
				qs[i] = "SELECT COUNT(*) FROM " + runnerTable(tableSizes[0])
			}
			pr := se.SubmitPacket(network.EncodeScript(qs...))
			if pr.Err != nil {
				return pr.Err
			}
		}
	}
	return nil
}

func sweepWAL(srv *dbms.Server, se *dbms.Session, cfg Config) error {
	// The WAL runner exercises the log serializer and disk writer with
	// isolated single-write transactions: each flush carries exactly one
	// transaction's records. This mirrors the paper's offline runners,
	// which "target individual OUs and do not represent the behavior of
	// the end-to-end workload" (§6.5) — they never observe the
	// group-commit batching and multi-record transactions that dominate
	// online WAL behavior, which is exactly why online data helps these
	// two subsystems the most.
	t := runnerTable(tableSizes[1])
	next := int64(1 << 21)
	for r := 0; r < repetitions*cfg.Scale; r++ {
		for i := 0; i < 8; i++ {
			if err := se.BeginTxn(); err != nil {
				return err
			}
			if _, err := se.Statement(
				"INSERT INTO "+t+" VALUES ($1, 2, 2.0, 'q')",
				storage.NewInt(next)); err != nil {
				return err
			}
			next++
			c, err := se.Commit()
			if err != nil {
				return err
			}
			if c != nil {
				if !c.Resolved {
					srv.WAL.Flush(se.Task.Now())
				}
				se.Task.Clock.AdvanceTo(c.DoneNS)
			}
		}
	}
	return nil
}
