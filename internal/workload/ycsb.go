package workload

import (
	"math/rand"

	"tscout/internal/dbms"
	"tscout/internal/sim"
	"tscout/internal/storage"
	"tscout/internal/wal"
)

// YCSB is the Yahoo! Cloud Serving Benchmark in the paper's read-only
// configuration (§6.1): single-tuple primary-key lookups against a table
// of 1 KB tuples (10 x 100-byte fields). The paper uses 12M tuples; the
// default here is laptop-scale and configurable.
type YCSB struct {
	// Records is the table size (default 10000).
	Records int
}

// Name implements Generator.
func (y *YCSB) Name() string { return "ycsb" }

func (y *YCSB) records() int {
	if y.Records <= 0 {
		return 10000
	}
	return y.Records
}

// Setup implements Generator.
func (y *YCSB) Setup(srv *dbms.Server) error {
	cols := []storage.Column{{Name: "ycsb_key", Kind: storage.KindInt}}
	for i := 0; i < 10; i++ {
		cols = append(cols, storage.Column{
			Name: "field" + itoa(int64(i)), Kind: storage.KindString, FixedBytes: 100,
		})
	}
	if _, err := srv.Catalog.CreateTable("usertable", storage.MustSchema(cols...)); err != nil {
		return err
	}
	if _, err := srv.Catalog.CreateBTreeIndex("usertable_pk", "usertable",
		[]string{"ycsb_key"}, []uint{32}, true); err != nil {
		return err
	}
	rng := rand.New(sim.NewPCG(1, 0)) //tsvet:ignore seeded-source population seed and key are part of the dataset definition; EXPERIMENTS.md's YCSB figure blocks depend on them
	field := pad("", 100)
	cells := make([]storage.Value, 0, 11*y.records())
	for i := 0; i < y.records(); i++ {
		cells = append(cells, iv(int64(i)))
		for f := 0; f < 10; f++ {
			cells = append(cells, sv(field))
		}
	}
	_ = rng
	return bulkLoad(srv, "usertable", cells)
}

// Txn implements Generator: one uniform-random primary-key read.
func (y *YCSB) Txn(se *dbms.Session, rng *rand.Rand) (*wal.Commit, error) {
	key := int64(rng.Intn(y.records()))
	if err := se.BeginTxn(); err != nil {
		return nil, err
	}
	if _, err := se.Statement("SELECT * FROM usertable WHERE ycsb_key = $1", iv(key)); err != nil {
		return nil, err
	}
	return se.Commit()
}
