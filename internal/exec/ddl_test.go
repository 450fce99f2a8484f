package exec

import "testing"

func TestCreateTableAndPrimaryKey(t *testing.T) {
	db := newTestDB(t, false)
	db.run(t, "CREATE TABLE widgets (id INT PRIMARY KEY, name VARCHAR(32), price FLOAT)")
	db.run(t, "INSERT INTO widgets VALUES (1, 'gear', 9.5), (2, 'cog', 3.25)")
	res := db.run(t, "SELECT name FROM widgets WHERE id = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "cog" {
		t.Fatalf("pk lookup: %+v", res.Rows)
	}
	// The primary key must have produced an index the planner uses.
	tbl, err := db.cat.Table("widgets")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Indexes) != 1 || !tbl.Indexes[0].Unique {
		t.Fatalf("pkey index: %+v", tbl.Indexes)
	}
	if _, err := db.tryRun("CREATE TABLE widgets (id INT)"); err == nil {
		t.Fatalf("duplicate table must fail")
	}
}

func TestCreateTableCompositePK(t *testing.T) {
	db := newTestDB(t, false)
	db.run(t, "CREATE TABLE pairs (a INT, b INT, v FLOAT, PRIMARY KEY (a, b))")
	db.run(t, "INSERT INTO pairs VALUES (1, 1, 10.0), (1, 2, 20.0), (2, 1, 30.0)")
	res := db.run(t, "SELECT v FROM pairs WHERE a = 1 AND b = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].AsFloat() != 20 {
		t.Fatalf("composite pk: %+v", res.Rows)
	}
	// Prefix probe.
	res = db.run(t, "SELECT v FROM pairs WHERE a = 1")
	if len(res.Rows) != 2 {
		t.Fatalf("prefix probe: %+v", res.Rows)
	}
}

func TestCreateTableStringPKUsesHash(t *testing.T) {
	db := newTestDB(t, false)
	db.run(t, "CREATE TABLE users (email VARCHAR(64) PRIMARY KEY, age INT)")
	db.run(t, "INSERT INTO users VALUES ('a@x.com', 30)")
	res := db.run(t, "SELECT age FROM users WHERE email = 'a@x.com'")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 30 {
		t.Fatalf("string pk: %+v", res.Rows)
	}
}

func TestCreateIndexBackfill(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 30)
	// accounts already has data; a new index must backfill it.
	db.run(t, "CREATE INDEX accounts_branch ON accounts (branch)")
	tbl, _ := db.cat.Table("accounts")
	var ix interface{ Len() int }
	for _, i := range tbl.Indexes {
		if i.Name == "accounts_branch" {
			ix = i
		}
	}
	if ix == nil || ix.Len() != 5 {
		t.Fatalf("backfill: %v", ix)
	}
	res := db.run(t, "SELECT COUNT(*) FROM accounts WHERE branch = 2")
	if res.Rows[0][0].AsInt() != 6 {
		t.Fatalf("indexed count: %+v", res.Rows)
	}
}

func TestCreateIndexErrors(t *testing.T) {
	db := newTestDB(t, false)
	if _, err := db.tryRun("CREATE INDEX i ON nosuch (x)"); err == nil {
		t.Fatalf("unknown table")
	}
	if _, err := db.tryRun("CREATE INDEX i ON accounts (nosuch)"); err == nil {
		t.Fatalf("unknown column")
	}
	if _, err := db.tryRun("CREATE TABLE bad (a NOSUCHTYPE)"); err == nil {
		t.Fatalf("unknown type")
	}
	if _, err := db.tryRun("CREATE TABLE t2 (id INT PRIMARY KEY, id INT)"); err == nil {
		t.Fatalf("duplicate column")
	}
}

func TestCreateIndexUsingHash(t *testing.T) {
	db := newTestDB(t, false)
	db.run(t, "CREATE TABLE kv2 (k INT, v INT)")
	db.run(t, "CREATE UNIQUE INDEX kv2_k ON kv2 (k) USING HASH")
	db.run(t, "INSERT INTO kv2 VALUES (7, 70)")
	res := db.run(t, "SELECT v FROM kv2 WHERE k = 7")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 70 {
		t.Fatalf("hash index: %+v", res.Rows)
	}
}
