package workload

import (
	"math/rand"

	"tscout/internal/dbms"
	"tscout/internal/wal"
)

// CHBench is the CH-benCHmark HTAP workload (§6.1): the TPC-C schema and
// transactions, mixed with analytical queries adapted from TPC-H. The
// paper runs 16 TPC-C terminals and 4 analytical terminals; this
// generator reproduces the 4/20 analytical fraction probabilistically.
// The analytical queries are adapted to the engine's SQL subset (no dates;
// order-id recency stands in for shipdate windows) — see DESIGN.md.
type CHBench struct {
	TPCC
}

// analyticalPct is the share of analytical transactions, matching 4 of 20
// BenchBase terminals.
const analyticalPct = 20

// Name implements Generator.
func (c *CHBench) Name() string { return "chbenchmark" }

// Txn implements Generator.
func (c *CHBench) Txn(se *dbms.Session, rng *rand.Rand) (*wal.Commit, error) {
	if rng.Intn(100) >= analyticalPct {
		return c.TPCC.Txn(se, rng)
	}
	return c.analytical(se, rng)
}

func (c *CHBench) analytical(se *dbms.Session, rng *rand.Rand) (*wal.Commit, error) {
	if err := se.BeginTxn(); err != nil {
		return nil, err
	}
	var err error
	switch rng.Intn(4) {
	case 0:
		// CH Q1 (pricing summary, adapted): aggregate order lines by
		// line number over the recent-order window.
		_, err = se.Statement(
			"SELECT ol_number, SUM(ol_quantity), SUM(ol_amount), AVG(ol_amount), COUNT(*) " +
				"FROM order_line WHERE ol_quantity >= 1 GROUP BY ol_number ORDER BY ol_number")
	case 1:
		// CH Q6 (revenue forecast, adapted): sum discounted revenue for
		// mid-quantity lines.
		_, err = se.Statement(
			"SELECT SUM(ol_amount) FROM order_line WHERE ol_quantity BETWEEN 2 AND 6 AND ol_amount > 1")
	case 2:
		// Customer/order join (CH Q3-flavoured): order volume per
		// customer last name in one warehouse.
		_, err = se.Statement(
			"SELECT c.c_last, COUNT(*) FROM orders o JOIN customer c ON o.o_c_id = c.c_id "+
				"WHERE o.o_w_id = $1 AND c.c_w_id = $2 GROUP BY c.c_last ORDER BY c.c_last",
			iv(int64(1+rng.Intn(c.warehouses()))), iv(int64(1+rng.Intn(c.warehouses()))))
	default:
		// Stock pressure scan (CH Q14-flavoured).
		_, err = se.Statement(
			"SELECT COUNT(*), AVG(s_quantity) FROM stock WHERE s_quantity < $1",
			iv(int64(20+rng.Intn(30))))
	}
	if err != nil {
		return nil, err
	}
	return se.Commit()
}
