package dbms

import (
	"errors"
	"testing"

	"tscout/internal/storage"
	"tscout/internal/txn"
	"tscout/internal/wal"
)

func TestSessionTxnAPI(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()

	// State machine guards.
	if _, err := se.Statement("SELECT 1"); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("statement without txn: %v", err)
	}
	if _, err := se.Commit(); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("commit without txn: %v", err)
	}
	if err := se.Rollback(); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("rollback without txn: %v", err)
	}
	if err := se.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	if err := se.BeginTxn(); !errors.Is(err, ErrTxnOpen) {
		t.Fatalf("double begin: %v", err)
	}
	if !se.InTxn() {
		t.Fatalf("InTxn")
	}

	// Multi-statement transaction with data flow through the client.
	if _, err := se.Statement("INSERT INTO kv VALUES ($1, $2)",
		storage.NewInt(1), storage.NewString("one")); err != nil {
		t.Fatal(err)
	}
	res, err := se.Statement("SELECT v FROM kv WHERE k = $1", storage.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str != "one" {
		t.Fatalf("read own write: %+v", res.Rows)
	}
	c, err := se.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if c == nil || !c.Resolved {
		t.Fatalf("synchronous WAL must resolve: %+v", c)
	}

	// Read-only transactions produce no WAL commit.
	se.BeginTxn()
	se.Statement("SELECT COUNT(*) FROM kv")
	if c, err := se.Commit(); err != nil || c != nil {
		t.Fatalf("read-only commit: %v %+v", err, c)
	}
}

func TestSessionRollback(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	se.BeginTxn()
	se.Statement("INSERT INTO kv VALUES (5, 'five')")
	if err := se.Rollback(); err != nil {
		t.Fatal(err)
	}
	se.BeginTxn()
	res, _ := se.Statement("SELECT COUNT(*) FROM kv")
	se.Commit()
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("rollback must discard: %+v", res.Rows)
	}
}

func TestSessionStatementErrorAborts(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	se.BeginTxn()
	se.Statement("INSERT INTO kv VALUES (9, 'x')")
	if _, err := se.Statement("SELECT * FROM nosuch"); err == nil {
		t.Fatalf("unknown table must fail")
	}
	if se.InTxn() {
		t.Fatalf("statement error must abort the transaction")
	}
	// The insert rolled back with it.
	se.BeginTxn()
	res, _ := se.Statement("SELECT COUNT(*) FROM kv")
	se.Commit()
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("abort must roll back: %+v", res.Rows)
	}
	// Parse errors too.
	se.BeginTxn()
	if _, err := se.Statement("SELEC nonsense"); err == nil {
		t.Fatalf("parse error must fail")
	}
	if se.InTxn() {
		t.Fatalf("parse error must abort")
	}
}

func TestSessionWriteConflictIsRetryable(t *testing.T) {
	srv := newTestServer(t, false)
	loader := srv.NewSession()
	if _, err := loader.Execute("INSERT INTO kv VALUES (1, 'x')"); err != nil {
		t.Fatal(err)
	}
	a, b := srv.NewSession(), srv.NewSession()
	a.BeginTxn()
	b.BeginTxn()
	if _, err := a.Statement("UPDATE kv SET v = 'a' WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	_, err := b.Statement("UPDATE kv SET v = 'b' WHERE k = 1")
	if !IsConflict(err) {
		t.Fatalf("concurrent update must conflict: %v", err)
	}
	if !IsConflict(txn.ErrWriteConflict) || IsConflict(nil) || IsConflict(errors.New("x")) {
		t.Fatalf("IsConflict classification")
	}
	if _, err := a.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionStatementChargesNetworking(t *testing.T) {
	srv, points := newArchivingServer(t)
	se := srv.NewSession()
	se.BeginTxn()
	se.Statement("SELECT COUNT(*) FROM kv")
	se.Commit()
	reads := 0
	for _, p := range points() {
		if p.OUName == "net_read" {
			reads++
			if p.Metrics.NetRecvBytes <= 0 {
				t.Fatalf("net_read without bytes: %+v", p.Metrics)
			}
		}
	}
	if reads == 0 {
		t.Fatalf("Statement must fire the networking read OU")
	}
}

func TestGroupCommitAcrossSessions(t *testing.T) {
	srv, err := NewServer(Config{
		Seed: 4,
		WAL:  wal.Config{GroupSize: 2, FlushIntervalNS: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Catalog.CreateTable("kv", storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt},
		storage.Column{Name: "v", Kind: storage.KindString},
	)); err != nil {
		t.Fatal(err)
	}
	a, b := srv.NewSession(), srv.NewSession()
	a.BeginTxn()
	a.Statement("INSERT INTO kv VALUES (1, 'a')")
	ca, err := a.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if ca.Resolved {
		t.Fatalf("first commit must wait for the group")
	}
	b.BeginTxn()
	b.Statement("INSERT INTO kv VALUES (2, 'b')")
	cb, err := b.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if !ca.Resolved || !cb.Resolved {
		t.Fatalf("group of 2 must flush both")
	}
	if ca.DoneNS != cb.DoneNS {
		t.Fatalf("group members share durability time")
	}
}
