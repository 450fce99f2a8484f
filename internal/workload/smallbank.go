package workload

import (
	"math/rand"

	"tscout/internal/dbms"
	"tscout/internal/storage"
	"tscout/internal/wal"
)

// SmallBank models a banking application (§6.1): short transactions doing
// reads and updates on customer accounts through primary-key indexes. In
// addition to the original six transaction types, the paper adds a
// Transfer transaction moving money between two accounts; so does this
// implementation.
type SmallBank struct {
	// Customers is the account count (default 1000; paper: 50M).
	Customers int
}

// Name implements Generator.
func (s *SmallBank) Name() string { return "smallbank" }

func (s *SmallBank) customers() int {
	if s.Customers <= 0 {
		return 1000
	}
	return s.Customers
}

// Setup implements Generator.
func (s *SmallBank) Setup(srv *dbms.Server) error {
	if _, err := srv.Catalog.CreateTable("accounts", storage.MustSchema(
		storage.Column{Name: "custid", Kind: storage.KindInt},
		storage.Column{Name: "name", Kind: storage.KindString, FixedBytes: 64},
	)); err != nil {
		return err
	}
	if _, err := srv.Catalog.CreateBTreeIndex("accounts_pk", "accounts",
		[]string{"custid"}, []uint{32}, true); err != nil {
		return err
	}
	for _, t := range []string{"savings", "checking"} {
		if _, err := srv.Catalog.CreateTable(t, storage.MustSchema(
			storage.Column{Name: "custid", Kind: storage.KindInt},
			storage.Column{Name: "bal", Kind: storage.KindFloat},
		)); err != nil {
			return err
		}
		if _, err := srv.Catalog.CreateBTreeIndex(t+"_pk", t,
			[]string{"custid"}, []uint{32}, true); err != nil {
			return err
		}
	}
	n := s.customers()
	acct := make([]storage.Value, 0, 2*n)
	sav := make([]storage.Value, 0, 2*n)
	chk := make([]storage.Value, 0, 2*n)
	for i := 0; i < n; i++ {
		acct = append(acct, iv(int64(i)), sv(pad("cust"+itoa(int64(i)), 20)))
		sav = append(sav, iv(int64(i)), fv(10000))
		chk = append(chk, iv(int64(i)), fv(5000))
	}
	if err := bulkLoad(srv, "accounts", acct); err != nil {
		return err
	}
	if err := bulkLoad(srv, "savings", sav); err != nil {
		return err
	}
	return bulkLoad(srv, "checking", chk)
}

// Txn implements Generator with the seven-type mix.
func (s *SmallBank) Txn(se *dbms.Session, rng *rand.Rand) (*wal.Commit, error) {
	a := int64(rng.Intn(s.customers()))
	b := int64(rng.Intn(s.customers()))
	amt := float64(1 + rng.Intn(100))
	if err := se.BeginTxn(); err != nil {
		return nil, err
	}
	var err error
	switch p := rng.Intn(100); {
	case p < 15: // Balance
		_, err = se.Statement("SELECT bal FROM savings WHERE custid = $1", iv(a))
		if err == nil {
			_, err = se.Statement("SELECT bal FROM checking WHERE custid = $1", iv(a))
		}
	case p < 30: // DepositChecking
		_, err = se.Statement("UPDATE checking SET bal = bal + $1 WHERE custid = $2", fv(amt), iv(a))
	case p < 45: // TransactSavings
		_, err = se.Statement("UPDATE savings SET bal = bal + $1 WHERE custid = $2", fv(amt), iv(a))
	case p < 60: // WriteCheck
		_, err = se.Statement("SELECT bal FROM checking WHERE custid = $1", iv(a))
		if err == nil {
			_, err = se.Statement("UPDATE checking SET bal = bal - $1 WHERE custid = $2", fv(amt), iv(a))
		}
	case p < 75: // Amalgamate: zero A's balances into B's checking
		_, err = se.Statement("SELECT bal FROM savings WHERE custid = $1", iv(a))
		if err == nil {
			_, err = se.Statement("UPDATE savings SET bal = 0 WHERE custid = $1", iv(a))
		}
		if err == nil {
			_, err = se.Statement("UPDATE checking SET bal = 0 WHERE custid = $1", iv(a))
		}
		if err == nil {
			_, err = se.Statement("UPDATE checking SET bal = bal + $1 WHERE custid = $2", fv(amt), iv(b))
		}
	case p < 85: // SendPayment
		_, err = se.Statement("UPDATE checking SET bal = bal - $1 WHERE custid = $2", fv(amt), iv(a))
		if err == nil {
			_, err = se.Statement("UPDATE checking SET bal = bal + $1 WHERE custid = $2", fv(amt), iv(b))
		}
	default: // Transfer (the paper's added transaction)
		_, err = se.Statement("UPDATE savings SET bal = bal - $1 WHERE custid = $2", fv(amt), iv(a))
		if err == nil {
			_, err = se.Statement("UPDATE checking SET bal = bal + $1 WHERE custid = $2", fv(amt), iv(b))
		}
	}
	if err != nil {
		return nil, err
	}
	return se.Commit()
}
