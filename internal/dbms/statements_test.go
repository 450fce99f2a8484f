package dbms

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tscout/internal/exec"
	"tscout/internal/network"
	"tscout/internal/storage"
)

func planText(t *testing.T, se *Session, q string, params ...storage.Value) string {
	t.Helper()
	res, err := se.Statement("EXPLAIN "+q, params...)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", q, err)
	}
	var sb strings.Builder
	for _, row := range res.Rows {
		sb.WriteString(row[0].Str + "\n")
	}
	return sb.String()
}

// TestCreateIndexReplansCachedStatement: the same text, run before and
// after CREATE INDEX, switches from the seq-scan OU to the index-scan OU,
// and EXPLAIN says so — a cached plan does not outlive the catalog it was
// analyzed against.
func TestCreateIndexReplansCachedStatement(t *testing.T) {
	srv := newArchiveServer(t)
	loader := srv.NewSession()
	if _, err := loader.Execute("CREATE TABLE acct (id INT PRIMARY KEY, owner INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := loader.Execute("INSERT INTO acct VALUES ($1, $2)",
			storage.NewInt(int64(i)), storage.NewInt(int64(i%8))); err != nil {
			t.Fatal(err)
		}
	}
	// scanOUs counts the scan OUs archived since the previous call.
	archived := 0
	scanOUs := func() map[string]int {
		t.Helper()
		pts, err := srv.reader(t).Points()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for _, p := range pts[archived:] {
			if p.OUName == "seq_scan" || p.OUName == "index_scan" {
				seen[p.OUName]++
			}
		}
		archived = len(pts)
		return seen
	}
	scanOUs()

	const q = "SELECT id FROM acct WHERE owner = $1"
	se := srv.NewSession()
	run := func() {
		t.Helper()
		if err := se.BeginTxn(); err != nil {
			t.Fatal(err)
		}
		res, err := se.Statement(q, storage.NewInt(3))
		if err != nil || len(res.Rows) != 5 {
			t.Fatalf("%s: %v %+v", q, err, res)
		}
		if _, err := se.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	explain := func() string {
		t.Helper()
		if err := se.BeginTxn(); err != nil {
			t.Fatal(err)
		}
		defer se.Rollback()
		return planText(t, se, q, storage.NewInt(3))
	}

	run()
	run()
	if got := scanOUs(); got["seq_scan"] != 2 || got["index_scan"] != 0 {
		t.Fatalf("before CREATE INDEX: scans %v, want 2 seq_scan", got)
	}
	if p := explain(); !strings.Contains(p, "Seq Scan on acct") {
		t.Fatalf("before CREATE INDEX:\n%s", p)
	}
	before := srv.stmts.byText[q].plan

	if _, err := loader.Execute("CREATE INDEX acct_owner ON acct (owner)"); err != nil {
		t.Fatal(err)
	}
	scanOUs()
	run()
	if got := scanOUs(); got["index_scan"] != 1 || got["seq_scan"] != 0 {
		t.Fatalf("after CREATE INDEX: scans %v, want 1 index_scan", got)
	}
	if p := explain(); !strings.Contains(p, "Index Scan using acct_owner on acct") {
		t.Fatalf("after CREATE INDEX:\n%s", p)
	}
	after := srv.stmts.byText[q].plan
	if after == before {
		t.Fatalf("the statement was not re-analyzed")
	}
	run()
	if srv.stmts.byText[q].plan != after {
		t.Fatalf("an unchanged catalog must not cause re-analysis")
	}
}

// TestMountArchiveAfterFirstUse: a text first run before the archive is
// mounted fails with the unknown-table error, is not remembered as failed,
// and succeeds once the table exists.
func TestMountArchiveAfterFirstUse(t *testing.T) {
	srv := newArchiveServer(t)
	se := srv.NewSession()
	const q = "SELECT COUNT(*) FROM tscout_archive"
	for i := 0; i < 2; i++ {
		if err := se.BeginTxn(); err != nil {
			t.Fatal(err)
		}
		_, err := se.Statement(q)
		if err == nil || err.Error() != `catalog: unknown table "tscout_archive"` {
			t.Fatalf("before the mount: %v", err)
		}
		if se.InTxn() {
			t.Fatalf("a failed statement must abort the transaction")
		}
	}
	st := srv.stmts.byText[q]
	if st == nil || st.plan != nil {
		t.Fatalf("the text is parsed once (%v) but a failed analysis is not cached", st)
	}
	if srv.stmts.hits != 1 || srv.stmts.misses != 1 {
		t.Fatalf("hits %d misses %d, want 1 and 1", srv.stmts.hits, srv.stmts.misses)
	}

	// Something to archive, then mount it.
	se.BeginTxn()
	se.Statement("INSERT INTO kv VALUES (1, 'one')")
	se.Commit()
	r := srv.reader(t)
	if r.NumRows() == 0 {
		t.Fatal("no training points to mount")
	}
	if _, err := srv.MountArchive(r); err != nil {
		t.Fatal(err)
	}
	if err := se.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	res, err := se.Statement(q)
	if err != nil || res.Rows[0][0].AsInt() != int64(r.NumRows()) {
		t.Fatalf("after the mount: %v %+v (archive has %d rows)", err, res, r.NumRows())
	}
	se.Commit()
}

// TestParseErrorsAreNotCached: a malformed text costs its netRead charge,
// fails, and leaves nothing behind.
func TestParseErrorsAreNotCached(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	for i := 0; i < 3; i++ {
		se.BeginTxn()
		before := se.Task.Now()
		if _, err := se.Statement("SELEKT 1"); err == nil {
			t.Fatal("malformed SQL must fail")
		}
		if se.Task.Now() == before {
			t.Fatal("the packet was read before it was rejected: netRead must be charged")
		}
	}
	if n := len(srv.stmts.byText); n != 0 {
		t.Fatalf("%d entries after only parse errors", n)
	}
	if srv.stmts.misses != 3 || srv.stmts.hits != 0 {
		t.Fatalf("hits %d misses %d", srv.stmts.hits, srv.stmts.misses)
	}
	if _, err := se.Execute("SELEKT 1"); err == nil {
		t.Fatal("Execute must fail too")
	}
	if pr := se.SubmitPacket(network.Encode(network.Message{Type: network.MsgQuery, Payload: []byte("SELEKT 1")})); pr.Err == nil {
		t.Fatal("SubmitPacket must fail too")
	}
	if n := len(srv.stmts.byText); n != 0 {
		t.Fatalf("%d entries after only parse errors", n)
	}
}

// TestServersDoNotSharePlans: two servers give the same table name
// different schemas; run in parallel (and under -race), each only ever
// sees its own plan for the shared statement text.
func TestServersDoNotSharePlans(t *testing.T) {
	const q = "SELECT b FROM t WHERE a = $1"
	for _, c := range []struct {
		name, ddl string
		insertSQL string
		insert    func(i int64) []storage.Value
		want      func(i int64) int64
		wantPlan  string
	}{
		{"a-then-b indexed", "CREATE TABLE t (a INT PRIMARY KEY, b INT)", "INSERT INTO t VALUES ($1, $2)",
			func(i int64) []storage.Value { return []storage.Value{storage.NewInt(i), storage.NewInt(i * 10)} },
			func(i int64) int64 { return i * 10 }, "Index Scan using t_pkey on t"},
		{"b-then-a unindexed", "CREATE TABLE t (b INT, pad VARCHAR(8), a INT)", "INSERT INTO t VALUES ($1, $2, $3)",
			func(i int64) []storage.Value {
				return []storage.Value{storage.NewInt(i + 7), storage.NewString("x"), storage.NewInt(i)}
			},
			func(i int64) int64 { return i + 7 }, "Seq Scan on t"},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			srv := newTestServer(t, false)
			se := srv.NewSession()
			if _, err := se.Execute(c.ddl); err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 30; i++ {
				if _, err := se.Execute(c.insertSQL, c.insert(i)...); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 200; round++ {
				i := int64(round % 30)
				se.BeginTxn()
				res, err := se.Statement(q, storage.NewInt(i))
				if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsInt() != c.want(i) {
					t.Fatalf("round %d: %v %+v, want %d", round, err, res, c.want(i))
				}
				if p := planText(t, se, q, storage.NewInt(i)); !strings.Contains(p, c.wantPlan) {
					t.Fatalf("round %d plan:\n%s", round, p)
				}
				se.Commit()
			}
		})
	}
}

// TestStatementTableBound: a stream of distinct literal-inlined texts never
// grows the table past its bound, and a $n template interleaved with them
// is re-parsed at most once per reset.
func TestStatementTableBound(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	const template = "SELECT v FROM kv WHERE k = $1"
	se.BeginTxn()
	templateMisses := uint64(0)
	for i := 0; i < 10000; i++ {
		if _, err := se.Statement(fmt.Sprintf("SELECT v FROM kv WHERE k = %d", i)); err != nil {
			t.Fatal(err)
		}
		before := srv.stmts.misses
		if _, err := se.Statement(template, storage.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
		templateMisses += srv.stmts.misses - before
		if n := len(srv.stmts.byText); n > maxCachedStatements {
			t.Fatalf("after %d texts the table holds %d entries, bound %d", i, n, maxCachedStatements)
		}
	}
	se.Commit()
	if srv.stmts.resets < 9 {
		t.Fatalf("%d resets for 10001 distinct texts and a bound of %d", srv.stmts.resets, maxCachedStatements)
	}
	if templateMisses > srv.stmts.resets+1 {
		t.Fatalf("the template missed %d times over %d resets", templateMisses, srv.stmts.resets)
	}
	if got := srv.stmts.hits + srv.stmts.misses; got != 20000 {
		t.Fatalf("%d lookups counted, want 20000", got)
	}
}

// oldEncodeResult is the result message as it was first built: fmt.Sprintf
// for the DML tag, a payload grown from nil, then framed by network.Encode.
func oldEncodeResult(r *exec.Result) network.Message {
	if len(r.Cols) == 0 {
		return network.Message{Type: network.MsgComplete,
			Payload: []byte(fmt.Sprintf("OK %d", r.Affected))}
	}
	var payload []byte
	for _, c := range r.Cols {
		payload = append(payload, c...)
		payload = append(payload, '\t')
	}
	payload = append(payload, '\n')
	for _, row := range r.Rows {
		for _, v := range row {
			payload = append(payload, v.String()...)
			payload = append(payload, '\t')
		}
		payload = append(payload, '\n')
	}
	return network.Message{Type: network.MsgResult, Payload: payload}
}

func TestEncodeResultBytesUnchanged(t *testing.T) {
	for name, r := range map[string]*exec.Result{
		"dml":          {Affected: 12345},
		"dml zero":     {},
		"dml negative": {Affected: -3},
		"empty select": {Cols: []string{"kv.k", "kv.v"}},
		"select": {Cols: []string{"a", "b", "c", "d"}, Rows: []storage.Row{
			{storage.NewInt(-7), storage.Null(), storage.NewFloat(0.1234567890123456789), storage.NewString("")},
			{storage.NewInt(1 << 40), storage.NewFloat(1e300), storage.NewString("tab\there"), storage.NewString(strings.Repeat("x", 300))},
		}},
	} {
		// Rendered in place after a message already in the buffer, as the
		// second statement of a packet is.
		first := network.Encode(network.Message{Type: network.MsgComplete, Payload: []byte("OK 1")})
		got := appendResult(append([]byte(nil), first...), r)
		want := append(first, network.Encode(oldEncodeResult(r))...)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %q, old %q", name, got, want)
		}
	}
}
