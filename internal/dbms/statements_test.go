package dbms

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tscout/internal/exec"
	"tscout/internal/network"
	"tscout/internal/sql"
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
		sb.WriteString(row[0].Str() + "\n")
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
		if se.tx != nil {
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

// TestSelfTemplateParseErrorParsesOnce: a text with no string literal is
// its own template. When it does not parse, lookup returns the error that
// text's one parse gave, counts one miss and keeps nothing — and it
// allocates less than lexing it into the template scratch and two parses
// would.
func TestSelfTemplateParseErrorParsesOnce(t *testing.T) {
	const text = "SELEKT k FROM kv WHERE k = 1"
	_, want := sql.Parse(text)
	if want == nil {
		t.Fatalf("%q parses", text)
	}
	var tbl statementTable
	st, lits, err := tbl.lookup(text, 0, nil)
	if st != nil || lits != nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("lookup: %v, %v, %v; want the error %q", st, lits, err, want)
	}
	if tbl.misses != 1 || tbl.hits != 0 || len(tbl.byText) != 0 {
		t.Fatalf("%d misses, %d hits, %d entries; want 1, 0, 0", tbl.misses, tbl.hits, len(tbl.byText))
	}
	// A second parse would allocate a whole parse more. AllocsPerRun does
	// not repeat exactly under -race, so the lookup is held below lexing
	// plus two parses rather than to lexing plus one.
	parse := testing.AllocsPerRun(100, func() { _, _ = sql.Parse(text) })
	lex := testing.AllocsPerRun(100, func() { _, _, _, _ = tbl.tmpl.Template(text, nil) })
	look := testing.AllocsPerRun(100, func() { _, _, _ = tbl.lookup(text, 0, nil) })
	if look >= lex+2*parse {
		t.Fatalf("a failing lookup allocates %v objects; lexing the text allocates %v and one parse %v", look, lex, parse)
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

// TestLiteralTextsShareATemplate: texts that differ only in a string
// literal are parsed once, as one template, yet each binds its own literal
// — two of them in one packet return each one's own rows — and only the
// template is entered.
func TestLiteralTextsShareATemplate(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	for i, v := range []string{"one", "it's"} {
		if _, err := se.Execute("INSERT INTO kv VALUES ($1, $2)", storage.NewInt(int64(i+1)), storage.NewString(v)); err != nil {
			t.Fatal(err)
		}
	}
	misses := srv.stmts.misses
	one, its := "SELECT k FROM kv WHERE v = 'one'", "SELECT k FROM kv WHERE v = "+network.QuoteString("it's")
	pr := se.SubmitPacket(network.EncodeScript(one, its))
	if pr.Err != nil {
		t.Fatal(pr.Err)
	}
	for i, want := range []int64{1, 2} {
		if rows := pr.Results[i].Rows; len(rows) != 1 || rows[0][0].AsInt() != want {
			t.Fatalf("statement %d: rows %v, want k = %d", i, rows, want)
		}
	}
	if got := srv.stmts.misses - misses; got != 1 {
		t.Fatalf("%d parses for two texts of one template", got)
	}
	if srv.stmts.byText["SELECT k FROM kv WHERE v = $1"] == nil {
		t.Fatalf("the template was not entered")
	}
	if _, ok := srv.stmts.byText[one]; ok {
		t.Fatalf("a literal text was entered beside its template")
	}
	if _, ok := srv.stmts.byText[its]; ok {
		t.Fatalf("a literal text was entered beside its template")
	}
}

// TestParamCountMismatch: a call binding other than the text's highest $n
// gets the raw text, so its literal never stands in for a missing
// parameter, and it fails or succeeds exactly as that text does alone.
func TestParamCountMismatch(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	if _, err := se.Execute("INSERT INTO kv VALUES (1, 'one')"); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT v FROM kv WHERE k = $1 AND v = 'one'"
	const notBound = "exec: parameter $1 not bound (0 given)"
	for _, c := range []struct {
		params []storage.Value
		err    string
	}{
		{[]storage.Value{storage.NewInt(1)}, ""},
		{nil, notBound},
		{[]storage.Value{storage.NewInt(1), storage.NewInt(9)}, ""},
		{[]storage.Value{storage.NewInt(1)}, ""},
	} {
		res, err := se.Execute(q, c.params...)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Fatalf("%d params: %v, want %s", len(c.params), err, c.err)
			}
			continue
		}
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str() != "one" {
			t.Fatalf("%d params: %v %v", len(c.params), err, res)
		}
	}
	if pr := se.SubmitPacket(network.EncodeQuery(q)); pr.Err == nil || pr.Err.Error() != notBound {
		t.Fatalf("SubmitPacket: %v, want %s", pr.Err, notBound)
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

// TestNewLiteralTextAllocatesNothing: a text that is new but whose
// template is known costs the lookup nothing: the Templater lexes into
// scratch, its literal is a substring of the text appended to the caller's
// slice, and the table looks the template up without copying it and does
// not enter the text. So 2 048 distinct UpdateLocation texts, twice what
// the table holds, leave it holding their one template.
func TestNewLiteralTextAllocatesNothing(t *testing.T) {
	const n = 2 * maxCachedStatements
	texts, nbrs := make([]string, n+1), make([]string, n+1)
	for i := range texts {
		nbrs[i] = fmt.Sprintf("nbr%012d", i)
		texts[i] = "UPDATE subscriber SET vlr_location = $1 WHERE sub_nbr = " + network.QuoteString(nbrs[i])
	}
	var tbl statementTable
	vals := []storage.Value{storage.NewInt(5)}
	if _, _, err := tbl.lookup(texts[n], 1, vals); err != nil {
		t.Fatal(err)
	}
	i := 0
	per := testing.AllocsPerRun(n-1, func() {
		_, bound, err := tbl.lookup(texts[i], 1, vals[:1])
		if err != nil || len(bound) != 2 || bound[1].Str() != nbrs[i] {
			t.Fatalf("text %d: %v, bound %v", i, err, bound)
		}
		vals = bound
		i++
	})
	if tbl.misses != 1 || tbl.resets != 0 || len(tbl.byText) != 1 {
		t.Fatalf("%d parses, %d resets, %d entries; want 1, 0, 1", tbl.misses, tbl.resets, len(tbl.byText))
	}
	if per != 0 {
		t.Fatalf("a new literal text allocates %.2f objects, want 0", per)
	}
}
