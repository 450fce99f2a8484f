package workload

import (
	"fmt"
	"math/rand"

	"tscout/internal/dbms"
	"tscout/internal/network"
	"tscout/internal/sim"
	"tscout/internal/storage"
	"tscout/internal/wal"
)

// TPCC is the TPC-C order-processing benchmark (§6.1): nine tables, five
// transaction types with the standard mix. The default scale is
// laptop-size; the paper uses 1, 20 and 200 warehouses.
type TPCC struct {
	// Warehouses is the scale factor (default 1).
	Warehouses int
	// CustomersPerDistrict defaults to 30 (3000 in the full spec).
	CustomersPerDistrict int
	// Items defaults to 1000 (100000 in the full spec).
	Items int
	// InitialOrdersPerDistrict defaults to 30.
	InitialOrdersPerDistrict int

	nextOID []int64 // per (warehouse, district) order-id cursor for loading
	// byLastName[i] is Payment's text that finds a district's customers
	// named lastName(i), built on its first use.
	byLastName [tpccLastNames]string
}

// Name implements Generator.
func (t *TPCC) Name() string { return "tpcc" }

const tpccDistricts = 10

func (t *TPCC) warehouses() int {
	if t.Warehouses <= 0 {
		return 1
	}
	return t.Warehouses
}

func (t *TPCC) custs() int {
	if t.CustomersPerDistrict <= 0 {
		return 30
	}
	return t.CustomersPerDistrict
}

func (t *TPCC) items() int {
	if t.Items <= 0 {
		return 1000
	}
	return t.Items
}

func (t *TPCC) initOrders() int {
	if t.InitialOrdersPerDistrict <= 0 {
		return 30
	}
	return t.InitialOrdersPerDistrict
}

// tpccLastNames is the number of distinct customer last names.
const tpccLastNames = 10

func lastName(c int) string { return "name" + itoa(int64(c%tpccLastNames)) }

// selectByLastName returns Payment's text that finds customer c's district
// neighbours of the same last name. It is the same bytes every call, which
// virtual time charges by length, built once per name.
func (t *TPCC) selectByLastName(c int) string {
	text := &t.byLastName[c%tpccLastNames]
	if *text == "" {
		*text = "SELECT c_id FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_last = " +
			network.QuoteString(lastName(c))
	}
	return *text
}

// Setup implements Generator: schema, indexes, and initial population.
func (t *TPCC) Setup(srv *dbms.Server) error {
	type tableDef struct {
		name string
		cols []storage.Column
	}
	defs := []tableDef{
		{"warehouse", []storage.Column{
			{Name: "w_id", Kind: storage.KindInt},
			{Name: "w_name", Kind: storage.KindString, FixedBytes: 10},
			{Name: "w_tax", Kind: storage.KindFloat},
			{Name: "w_ytd", Kind: storage.KindFloat},
		}},
		{"district", []storage.Column{
			{Name: "d_w_id", Kind: storage.KindInt},
			{Name: "d_id", Kind: storage.KindInt},
			{Name: "d_name", Kind: storage.KindString, FixedBytes: 10},
			{Name: "d_tax", Kind: storage.KindFloat},
			{Name: "d_ytd", Kind: storage.KindFloat},
			{Name: "d_next_o_id", Kind: storage.KindInt},
		}},
		{"customer", []storage.Column{
			{Name: "c_w_id", Kind: storage.KindInt},
			{Name: "c_d_id", Kind: storage.KindInt},
			{Name: "c_id", Kind: storage.KindInt},
			{Name: "c_last", Kind: storage.KindString, FixedBytes: 16},
			{Name: "c_balance", Kind: storage.KindFloat},
			{Name: "c_ytd_payment", Kind: storage.KindFloat},
			{Name: "c_payment_cnt", Kind: storage.KindInt},
			{Name: "c_data", Kind: storage.KindString, FixedBytes: 250},
		}},
		{"history", []storage.Column{
			{Name: "h_c_w_id", Kind: storage.KindInt},
			{Name: "h_c_d_id", Kind: storage.KindInt},
			{Name: "h_c_id", Kind: storage.KindInt},
			{Name: "h_amount", Kind: storage.KindFloat},
			{Name: "h_data", Kind: storage.KindString, FixedBytes: 24},
		}},
		{"item", []storage.Column{
			{Name: "i_id", Kind: storage.KindInt},
			{Name: "i_name", Kind: storage.KindString, FixedBytes: 24},
			{Name: "i_price", Kind: storage.KindFloat},
		}},
		{"stock", []storage.Column{
			{Name: "s_w_id", Kind: storage.KindInt},
			{Name: "s_i_id", Kind: storage.KindInt},
			{Name: "s_quantity", Kind: storage.KindInt},
			{Name: "s_ytd", Kind: storage.KindFloat},
			{Name: "s_order_cnt", Kind: storage.KindInt},
		}},
		{"orders", []storage.Column{
			{Name: "o_w_id", Kind: storage.KindInt},
			{Name: "o_d_id", Kind: storage.KindInt},
			{Name: "o_id", Kind: storage.KindInt},
			{Name: "o_c_id", Kind: storage.KindInt},
			{Name: "o_carrier_id", Kind: storage.KindInt},
			{Name: "o_ol_cnt", Kind: storage.KindInt},
		}},
		{"new_order", []storage.Column{
			{Name: "no_w_id", Kind: storage.KindInt},
			{Name: "no_d_id", Kind: storage.KindInt},
			{Name: "no_o_id", Kind: storage.KindInt},
		}},
		{"order_line", []storage.Column{
			{Name: "ol_w_id", Kind: storage.KindInt},
			{Name: "ol_d_id", Kind: storage.KindInt},
			{Name: "ol_o_id", Kind: storage.KindInt},
			{Name: "ol_number", Kind: storage.KindInt},
			{Name: "ol_i_id", Kind: storage.KindInt},
			{Name: "ol_quantity", Kind: storage.KindInt},
			{Name: "ol_amount", Kind: storage.KindFloat},
		}},
	}
	for _, d := range defs {
		if _, err := srv.Catalog.CreateTable(d.name, storage.MustSchema(d.cols...)); err != nil {
			return err
		}
	}
	type ixDef struct {
		name, table string
		cols        []string
		bits        []uint
	}
	for _, ix := range []ixDef{
		{"warehouse_pk", "warehouse", []string{"w_id"}, []uint{9}},
		{"district_pk", "district", []string{"d_w_id", "d_id"}, []uint{9, 5}},
		{"customer_pk", "customer", []string{"c_w_id", "c_d_id", "c_id"}, []uint{9, 5, 16}},
		{"item_pk", "item", []string{"i_id"}, []uint{20}},
		{"stock_pk", "stock", []string{"s_w_id", "s_i_id"}, []uint{9, 20}},
		{"orders_pk", "orders", []string{"o_w_id", "o_d_id", "o_id"}, []uint{9, 5, 26}},
		{"orders_cust", "orders", []string{"o_w_id", "o_d_id", "o_c_id", "o_id"}, []uint{9, 5, 16, 26}},
		{"new_order_pk", "new_order", []string{"no_w_id", "no_d_id", "no_o_id"}, []uint{9, 5, 26}},
		{"order_line_pk", "order_line", []string{"ol_w_id", "ol_d_id", "ol_o_id", "ol_number"}, []uint{9, 5, 26, 5}},
	} {
		if _, err := srv.Catalog.CreateBTreeIndex(ix.name, ix.table, ix.cols, ix.bits, true); err != nil {
			return err
		}
	}
	// The Payment-by-last-name indirection index.
	if _, err := srv.Catalog.CreateHashIndex("customer_name", "customer",
		[]string{"c_w_id", "c_d_id", "c_last"}, false); err != nil {
		return err
	}

	rng := rand.New(sim.NewPCG(3, 0)) //tsvet:ignore seeded-source population seed and key are part of the dataset definition; testdata/golden.txt, golden_pooled.txt, the tpcc_* ledger digests and the TPC-C figure blocks depend on them
	W, C, I, O := t.warehouses(), t.custs(), t.items(), t.initOrders()
	t.nextOID = make([]int64, W*tpccDistricts)

	// Each table's rows back to back, as bulkLoad takes them, sized up
	// front: a large slice grows by a quarter at a time, so appending
	// order_line's rows to an empty one would allocate five times their size.
	WD := W * tpccDistricts
	items := make([]storage.Value, 0, I*3)
	wh := make([]storage.Value, 0, W*4)
	stock := make([]storage.Value, 0, W*I*5)
	dist := make([]storage.Value, 0, WD*6)
	cust := make([]storage.Value, 0, WD*C*8)
	orders := make([]storage.Value, 0, WD*O*6)
	newOrders := make([]storage.Value, 0, WD*(O-O*2/3)*3)
	lines := make([]storage.Value, 0, WD*O*15*7) // at most 15 lines an order
	for i := 1; i <= I; i++ {
		items = append(items,
			iv(int64(i)), sv(pad("item"+itoa(int64(i)), 12)), fv(1+float64(rng.Intn(9999))/100),
		)
	}
	for w := 1; w <= W; w++ {
		wh = append(wh,
			iv(int64(w)), sv(pad("wh"+itoa(int64(w)), 6)),
			fv(float64(rng.Intn(20))/100), fv(300000),
		)
		for i := 1; i <= I; i++ {
			stock = append(stock,
				iv(int64(w)), iv(int64(i)), iv(int64(10+rng.Intn(91))), fv(0), iv(0),
			)
		}
		for d := 1; d <= tpccDistricts; d++ {
			nextO := int64(O + 1)
			t.nextOID[(w-1)*tpccDistricts+d-1] = nextO
			dist = append(dist,
				iv(int64(w)), iv(int64(d)), sv(pad("dist"+itoa(int64(d)), 6)),
				fv(float64(rng.Intn(20))/100), fv(30000), iv(nextO),
			)
			for c := 1; c <= C; c++ {
				cust = append(cust,
					iv(int64(w)), iv(int64(d)), iv(int64(c)), sv(lastName(c)),
					fv(-10), fv(10), iv(1), sv(pad("data", 100)),
				)
			}
			for o := 1; o <= O; o++ {
				cid := int64(1 + rng.Intn(C))
				olCnt := 5 + rng.Intn(11)
				carrier := int64(1 + rng.Intn(10))
				if o > O*2/3 {
					carrier = 0 // undelivered
					newOrders = append(newOrders, iv(int64(w)), iv(int64(d)), iv(int64(o)))
				}
				orders = append(orders,
					iv(int64(w)), iv(int64(d)), iv(int64(o)), iv(cid), iv(carrier), iv(int64(olCnt)),
				)
				for l := 1; l <= olCnt; l++ {
					lines = append(lines,
						iv(int64(w)), iv(int64(d)), iv(int64(o)), iv(int64(l)),
						iv(int64(1+rng.Intn(I))), iv(int64(1+rng.Intn(10))),
						fv(float64(rng.Intn(999999))/100),
					)
				}
			}
		}
	}
	loads := []struct {
		table string
		cells []storage.Value
	}{
		{"item", items}, {"warehouse", wh}, {"stock", stock}, {"district", dist},
		{"customer", cust}, {"orders", orders}, {"new_order", newOrders}, {"order_line", lines},
	}
	for _, l := range loads {
		if err := bulkLoad(srv, l.table, l.cells); err != nil {
			return err
		}
	}
	return nil
}

// Txn implements Generator with the standard mix: NewOrder 45%,
// Payment 43%, OrderStatus 4%, Delivery 4%, StockLevel 4%.
func (t *TPCC) Txn(se *dbms.Session, rng *rand.Rand) (*wal.Commit, error) {
	switch p := rng.Intn(100); {
	case p < 45:
		return t.newOrder(se, rng)
	case p < 88:
		return t.payment(se, rng)
	case p < 92:
		return t.orderStatus(se, rng)
	case p < 96:
		return t.delivery(se, rng)
	default:
		return t.stockLevel(se, rng)
	}
}

func (t *TPCC) pick(rng *rand.Rand) (w, d, c int64) {
	return int64(1 + rng.Intn(t.warehouses())), int64(1 + rng.Intn(tpccDistricts)),
		int64(1 + rng.Intn(t.custs()))
}

func (t *TPCC) newOrder(se *dbms.Session, rng *rand.Rand) (*wal.Commit, error) {
	w, d, c := t.pick(rng)
	if err := se.BeginTxn(); err != nil {
		return nil, err
	}
	if _, err := se.Statement("SELECT w_tax FROM warehouse WHERE w_id = $1", iv(w)); err != nil {
		return nil, err
	}
	res, err := se.Statement(
		"SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2", iv(w), iv(d))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		se.Rollback()
		return nil, fmt.Errorf("tpcc: district (%d,%d) missing", w, d)
	}
	oid := res.Rows[0][1].AsInt()
	if _, err := se.Statement(
		"UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = $1 AND d_id = $2",
		iv(w), iv(d)); err != nil {
		return nil, err
	}
	if _, err := se.Statement(
		"SELECT c_balance FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3",
		iv(w), iv(d), iv(c)); err != nil {
		return nil, err
	}
	olCnt := 5 + rng.Intn(11)
	if _, err := se.Statement("INSERT INTO orders VALUES ($1, $2, $3, $4, 0, $5)",
		iv(w), iv(d), iv(oid), iv(c), iv(int64(olCnt))); err != nil {
		return nil, err
	}
	if _, err := se.Statement("INSERT INTO new_order VALUES ($1, $2, $3)",
		iv(w), iv(d), iv(oid)); err != nil {
		return nil, err
	}
	for l := 1; l <= olCnt; l++ {
		item := int64(1 + rng.Intn(t.items()))
		qty := int64(1 + rng.Intn(10))
		res, err := se.Statement("SELECT i_price FROM item WHERE i_id = $1", iv(item))
		if err != nil {
			return nil, err
		}
		price := 1.0
		if len(res.Rows) > 0 {
			price = res.Rows[0][0].AsFloat()
		}
		if _, err := se.Statement(
			"SELECT s_quantity FROM stock WHERE s_w_id = $1 AND s_i_id = $2", iv(w), iv(item)); err != nil {
			return nil, err
		}
		if _, err := se.Statement(
			"UPDATE stock SET s_quantity = s_quantity - $1, s_ytd = s_ytd + $2, s_order_cnt = s_order_cnt + 1 "+
				"WHERE s_w_id = $3 AND s_i_id = $4",
			iv(qty), fv(float64(qty)), iv(w), iv(item)); err != nil {
			return nil, err
		}
		if _, err := se.Statement("INSERT INTO order_line VALUES ($1, $2, $3, $4, $5, $6, $7)",
			iv(w), iv(d), iv(oid), iv(int64(l)), iv(item), iv(qty),
			fv(price*float64(qty))); err != nil {
			return nil, err
		}
	}
	return se.Commit()
}

func (t *TPCC) payment(se *dbms.Session, rng *rand.Rand) (*wal.Commit, error) {
	w, d, c := t.pick(rng)
	amt := 1 + float64(rng.Intn(4999))/100*5
	if err := se.BeginTxn(); err != nil {
		return nil, err
	}
	if _, err := se.Statement("UPDATE warehouse SET w_ytd = w_ytd + $1 WHERE w_id = $2",
		fv(amt), iv(w)); err != nil {
		return nil, err
	}
	if _, err := se.Statement(
		"UPDATE district SET d_ytd = d_ytd + $1 WHERE d_w_id = $2 AND d_id = $3",
		fv(amt), iv(w), iv(d)); err != nil {
		return nil, err
	}
	// 60% by customer id, 40% by last name through the hash index.
	if rng.Intn(100) < 40 {
		res, err := se.Statement(t.selectByLastName(int(c)), iv(w), iv(d))
		if err != nil {
			return nil, err
		}
		if len(res.Rows) > 0 {
			c = res.Rows[len(res.Rows)/2][0].AsInt() // middle customer, per spec
		}
	}
	if _, err := se.Statement(
		"UPDATE customer SET c_balance = c_balance - $1, c_ytd_payment = c_ytd_payment + $1, "+
			"c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = $2 AND c_d_id = $3 AND c_id = $4",
		fv(amt), iv(w), iv(d), iv(c)); err != nil {
		return nil, err
	}
	if _, err := se.Statement("INSERT INTO history VALUES ($1, $2, $3, $4, 'payment')",
		iv(w), iv(d), iv(c), fv(amt)); err != nil {
		return nil, err
	}
	return se.Commit()
}

func (t *TPCC) orderStatus(se *dbms.Session, rng *rand.Rand) (*wal.Commit, error) {
	w, d, c := t.pick(rng)
	if err := se.BeginTxn(); err != nil {
		return nil, err
	}
	if _, err := se.Statement(
		"SELECT c_balance, c_last FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3",
		iv(w), iv(d), iv(c)); err != nil {
		return nil, err
	}
	res, err := se.Statement(
		"SELECT o_id, o_carrier_id FROM orders WHERE o_w_id = $1 AND o_d_id = $2 AND o_c_id = $3 "+
			"ORDER BY o_id DESC LIMIT 1", iv(w), iv(d), iv(c))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) > 0 {
		oid := res.Rows[0][0].AsInt()
		if _, err := se.Statement(
			"SELECT ol_i_id, ol_quantity, ol_amount FROM order_line "+
				"WHERE ol_w_id = $1 AND ol_d_id = $2 AND ol_o_id = $3",
			iv(w), iv(d), iv(oid)); err != nil {
			return nil, err
		}
	}
	return se.Commit()
}

func (t *TPCC) delivery(se *dbms.Session, rng *rand.Rand) (*wal.Commit, error) {
	w := int64(1 + rng.Intn(t.warehouses()))
	carrier := int64(1 + rng.Intn(10))
	if err := se.BeginTxn(); err != nil {
		return nil, err
	}
	for d := int64(1); d <= tpccDistricts; d++ {
		res, err := se.Statement(
			"SELECT no_o_id FROM new_order WHERE no_w_id = $1 AND no_d_id = $2 ORDER BY no_o_id LIMIT 1",
			iv(w), iv(d))
		if err != nil {
			return nil, err
		}
		if len(res.Rows) == 0 {
			continue
		}
		oid := res.Rows[0][0].AsInt()
		if _, err := se.Statement(
			"DELETE FROM new_order WHERE no_w_id = $1 AND no_d_id = $2 AND no_o_id = $3",
			iv(w), iv(d), iv(oid)); err != nil {
			return nil, err
		}
		cres, err := se.Statement(
			"SELECT o_c_id FROM orders WHERE o_w_id = $1 AND o_d_id = $2 AND o_id = $3",
			iv(w), iv(d), iv(oid))
		if err != nil {
			return nil, err
		}
		// A result lives until the session's next statement: read the
		// customer now.
		found := len(cres.Rows) > 0
		var cid int64
		if found {
			cid = cres.Rows[0][0].AsInt()
		}
		if _, err := se.Statement(
			"UPDATE orders SET o_carrier_id = $1 WHERE o_w_id = $2 AND o_d_id = $3 AND o_id = $4",
			iv(carrier), iv(w), iv(d), iv(oid)); err != nil {
			return nil, err
		}
		sres, err := se.Statement(
			"SELECT SUM(ol_amount) FROM order_line WHERE ol_w_id = $1 AND ol_d_id = $2 AND ol_o_id = $3",
			iv(w), iv(d), iv(oid))
		if err != nil {
			return nil, err
		}
		if found {
			total := sres.Rows[0][0].AsFloat()
			if _, err := se.Statement(
				"UPDATE customer SET c_balance = c_balance + $1 WHERE c_w_id = $2 AND c_d_id = $3 AND c_id = $4",
				fv(total), iv(w), iv(d), iv(cid)); err != nil {
				return nil, err
			}
		}
	}
	return se.Commit()
}

func (t *TPCC) stockLevel(se *dbms.Session, rng *rand.Rand) (*wal.Commit, error) {
	w, d, _ := t.pick(rng)
	threshold := int64(10 + rng.Intn(11))
	if err := se.BeginTxn(); err != nil {
		return nil, err
	}
	res, err := se.Statement(
		"SELECT d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2", iv(w), iv(d))
	if err != nil {
		return nil, err
	}
	next := res.Rows[0][0].AsInt()
	if _, err := se.Statement(
		"SELECT COUNT(*) FROM order_line ol JOIN stock s ON ol.ol_i_id = s.s_i_id "+
			"WHERE ol.ol_w_id = $1 AND ol.ol_d_id = $2 AND ol.ol_o_id >= $3 "+
			"AND s.s_w_id = $4 AND s.s_quantity < $5",
		iv(w), iv(d), iv(next-20), iv(w), iv(threshold)); err != nil {
		return nil, err
	}
	return se.Commit()
}
