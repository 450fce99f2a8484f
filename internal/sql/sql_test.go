package sql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tscout/internal/network"
	"tscout/internal/storage"
)

func parseSelect(t *testing.T, q string) *SelectStmt {
	t.Helper()
	s, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	sel, ok := s.(*SelectStmt)
	if !ok {
		t.Fatalf("not a select: %T", s)
	}
	return sel
}

func TestParseSimpleSelect(t *testing.T) {
	s := parseSelect(t, "SELECT * FROM ycsb WHERE ycsb_key = $1")
	if !s.Exprs[0].Star || s.From.Name != "ycsb" {
		t.Fatalf("%+v", s)
	}
	if len(s.Where) != 1 || s.Where[0].Op != OpEq || s.Where[0].Col.Name != "ycsb_key" {
		t.Fatalf("where: %+v", s.Where)
	}
	if p, ok := s.Where[0].Val.(Param); !ok || p.N != 1 {
		t.Fatalf("param: %+v", s.Where[0].Val)
	}
}

func TestParseColumnsAndAliases(t *testing.T) {
	s := parseSelect(t, "select c.c_balance, c.c_first from customer as c where c.c_id = 5")
	if s.From.Name != "customer" || s.From.Alias != "c" || s.From.Binding() != "c" {
		t.Fatalf("alias: %+v", s.From)
	}
	if s.Exprs[0].Col.Table != "c" || s.Exprs[0].Col.Name != "c_balance" {
		t.Fatalf("cols: %+v", s.Exprs)
	}
	if s.Exprs[0].Col.String() != "c.c_balance" {
		t.Fatalf("colref string")
	}
	// Bare alias without AS.
	s2 := parseSelect(t, "select x.a from t x where x.a = 1")
	if s2.From.Alias != "x" {
		t.Fatalf("bare alias: %+v", s2.From)
	}
}

func TestParseJoinGroupOrderLimit(t *testing.T) {
	q := `SELECT o.o_id, SUM(ol.ol_amount) FROM orders o
	      JOIN order_line ol ON o.o_id = ol.ol_o_id
	      WHERE o.o_w_id = 1 AND o.o_id >= 10 AND o.o_id <= 20
	      GROUP BY o.o_id ORDER BY o.o_id DESC LIMIT 5`
	s := parseSelect(t, q)
	if len(s.Joins) != 1 || s.Joins[0].Table.Alias != "ol" {
		t.Fatalf("join: %+v", s.Joins)
	}
	if s.Joins[0].LeftCol.String() != "o.o_id" || s.Joins[0].RightCol.String() != "ol.ol_o_id" {
		t.Fatalf("join cols: %+v", s.Joins[0])
	}
	if len(s.Where) != 3 || s.Where[1].Op != OpGe || s.Where[2].Op != OpLe {
		t.Fatalf("where: %+v", s.Where)
	}
	if len(s.GroupBy) != 1 || s.GroupBy[0].Name != "o_id" {
		t.Fatalf("group by: %+v", s.GroupBy)
	}
	if len(s.OrderBy) != 1 || !s.OrderBy[0].Desc {
		t.Fatalf("order by: %+v", s.OrderBy)
	}
	if s.Limit != 5 {
		t.Fatalf("limit: %d", s.Limit)
	}
	if s.Exprs[1].Agg != AggSum || s.Exprs[1].Col.Name != "ol_amount" {
		t.Fatalf("agg: %+v", s.Exprs[1])
	}
}

func TestParseAggregates(t *testing.T) {
	s := parseSelect(t, "SELECT COUNT(*), AVG(bal), MIN(bal), MAX(bal) FROM accounts")
	wants := []AggKind{AggCount, AggAvg, AggMin, AggMax}
	for i, w := range wants {
		if s.Exprs[i].Agg != w {
			t.Fatalf("agg %d: %+v", i, s.Exprs[i])
		}
	}
	if _, err := Parse("SELECT SUM(*) FROM t"); err == nil {
		t.Fatalf("SUM(*) must fail")
	}
}

func TestParseBetween(t *testing.T) {
	s := parseSelect(t, "SELECT * FROM t WHERE a BETWEEN 5 AND 10")
	if len(s.Where) != 2 || s.Where[0].Op != OpGe || s.Where[1].Op != OpLe {
		t.Fatalf("between: %+v", s.Where)
	}
}

func TestParseForUpdateIgnored(t *testing.T) {
	s := parseSelect(t, "SELECT * FROM t WHERE a = 1 FOR UPDATE")
	if len(s.Where) != 1 {
		t.Fatalf("%+v", s)
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse("INSERT INTO t (a, b) VALUES (1, 'x'), ($1, $2)")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*InsertStmt)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}
	if lit, ok := ins.Rows[0][1].(Literal); !ok || lit.Val.Str() != "x" {
		t.Fatalf("literal: %+v", ins.Rows[0][1])
	}
	if p, ok := ins.Rows[1][0].(Param); !ok || p.N != 1 {
		t.Fatalf("param: %+v", ins.Rows[1][0])
	}
	// No column list.
	st2, err := Parse("INSERT INTO t VALUES (1, 2.5, NULL)")
	if err != nil {
		t.Fatal(err)
	}
	ins2 := st2.(*InsertStmt)
	if len(ins2.Columns) != 0 || len(ins2.Rows[0]) != 3 {
		t.Fatalf("%+v", ins2)
	}
	if lit := ins2.Rows[0][1].(Literal); lit.Val.Kind() != storage.KindFloat {
		t.Fatalf("float literal: %+v", lit)
	}
	if lit := ins2.Rows[0][2].(Literal); !lit.Val.IsNull() {
		t.Fatalf("null literal: %+v", lit)
	}
}

func TestParseUpdate(t *testing.T) {
	st, err := Parse("UPDATE accounts SET balance = balance + $1, touched = 1 WHERE id = $2")
	if err != nil {
		t.Fatal(err)
	}
	up := st.(*UpdateStmt)
	if up.Table != "accounts" || len(up.Sets) != 2 || len(up.Where) != 1 {
		t.Fatalf("%+v", up)
	}
	bin, ok := up.Sets[0].Val.(Binary)
	if !ok || bin.Op != '+' {
		t.Fatalf("binary: %+v", up.Sets[0].Val)
	}
	if col, ok := bin.Left.(ColExpr); !ok || col.Ref.Name != "balance" {
		t.Fatalf("col expr: %+v", bin.Left)
	}
}

func TestParseDelete(t *testing.T) {
	st, err := Parse("DELETE FROM new_order WHERE no_w_id = 1 AND no_o_id = 2")
	if err != nil {
		t.Fatal(err)
	}
	del := st.(*DeleteStmt)
	if del.Table != "new_order" || len(del.Where) != 2 {
		t.Fatalf("%+v", del)
	}
	st2, err := Parse("DELETE FROM t")
	if err != nil || st2.(*DeleteStmt).Where != nil {
		t.Fatalf("bare delete: %v %+v", err, st2)
	}
}

func TestParseNegativeAndParens(t *testing.T) {
	st, err := Parse("UPDATE t SET a = -(b - 3) * 2 WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*UpdateStmt).Sets[0].Val.(Binary); !ok {
		t.Fatalf("%+v", st)
	}
}

func TestParseComments(t *testing.T) {
	s := parseSelect(t, "SELECT * FROM t -- trailing comment\n WHERE a = 1")
	if len(s.Where) != 1 {
		t.Fatalf("%+v", s)
	}
}

func TestParseStringEscapes(t *testing.T) {
	st, err := Parse("INSERT INTO t VALUES ('it''s')")
	if err != nil {
		t.Fatal(err)
	}
	if lit := st.(*InsertStmt).Rows[0][0].(Literal); lit.Val.Str() != "it's" {
		t.Fatalf("escape: %q", lit.Val.Str())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a ==",
		"SELECT * FROM t LIMIT x",
		"INSERT INTO t",
		"INSERT INTO t VALUES 1",
		"UPDATE t SET",
		"DELETE t",
		"SELECT * FROM t WHERE a = 'unterminated",
		"SELECT * FROM t WHERE a = $",
		"SELECT * FROM t; garbage",
		"SELECT * FROM t WHERE a ! b",
		"SELECT * FROM t WHERE a = 1 AND",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Fatalf("must fail: %q", q)
		} else if !strings.Contains(err.Error(), "sql:") {
			t.Fatalf("error prefix: %v", err)
		}
	}
}

// TestParseErrorPositions: a string token is placed at its opening quote,
// as every other token is at its first byte.
func TestParseErrorPositions(t *testing.T) {
	for q, want := range map[string]string{
		"SELECT 'abc' FROM t": `sql: expected identifier, got 'abc' (near position 7 in "SELECT 'abc' FROM t")`,
		"SELECT a FROM t WHERE a = 'xy' 'z'": `sql: unexpected 'z' after statement ` +
			`(near position 31 in "SELECT a FROM t WHERE a = 'xy' 'z'")`,
	} {
		if _, err := Parse(q); err == nil || err.Error() != want {
			t.Errorf("%q: %v, want %s", q, err, want)
		}
	}
}

// templateOf is tp.Template with the template as a string: the text itself
// when it is its own template. It hands Template a slice that already holds
// a value, as a session's parameters are, and returns only what Template
// appended after it, panicking if the value is not left as it was.
func templateOf(tp *Templater, text string) (string, []storage.Value, int, error) {
	tmpl, vals, maxParam, err := tp.Template(text, []storage.Value{storage.NewInt(-1)})
	if len(vals) == 0 || vals[0].Kind() != storage.KindInt || vals[0].AsInt() != -1 {
		panic(fmt.Sprintf("%q: Template did not append to the values it was given: %v", text, vals))
	}
	lits := vals[1:]
	if len(lits) == 0 {
		lits = nil
	}
	if err != nil || tmpl == nil {
		return text, lits, maxParam, err
	}
	return string(tmpl), lits, maxParam, nil
}

func TestTemplate(t *testing.T) {
	var tp Templater
	for _, c := range []struct {
		text, template string
		lits           []string
		maxParam       int
	}{
		{"UPDATE subscriber SET vlr_location = $1 WHERE sub_nbr = '000000000000017'",
			"UPDATE subscriber SET vlr_location = $1 WHERE sub_nbr = $2", []string{"000000000000017"}, 1},
		{"INSERT INTO history VALUES ($1, $2, $3, $4, 'payment')",
			"INSERT INTO history VALUES ($1, $2, $3, $4, $5)", []string{"payment"}, 4},
		// Literals number on from the highest $n, gaps and all.
		{"SELECT a FROM t WHERE b = $3 AND c = 'x' AND d = 'it''s'",
			"SELECT a FROM t WHERE b = $3 AND c = $4 AND d = $5", []string{"x", "it's"}, 3},
		// A quote in a comment is not a literal.
		{"SELECT a FROM t -- it's\nWHERE b = 'y'", "SELECT a FROM t -- it's\nWHERE b = $1", []string{"y"}, 0},
		// A digit after a literal stays a token of its own.
		{"SELECT 'x'1", "SELECT $1 1", []string{"x"}, 0},
		// Numbers stay literals; a text without strings is its own template.
		{"SELECT a FROM t WHERE b = $2 LIMIT 1", "SELECT a FROM t WHERE b = $2 LIMIT 1", nil, 2},
	} {
		tmpl, lits, maxParam, err := templateOf(&tp, c.text)
		if err != nil {
			t.Fatalf("%q: %v", c.text, err)
		}
		var got []string
		for _, v := range lits {
			got = append(got, v.Str())
		}
		if tmpl != c.template || !reflect.DeepEqual(got, c.lits) || maxParam != c.maxParam {
			t.Errorf("%q: template %q lits %q $%d, want %q %q $%d",
				c.text, tmpl, got, maxParam, c.template, c.lits, c.maxParam)
		}
	}
	if _, _, _, err := tp.Template("SELECT a FROM t WHERE b = 'open", nil); err == nil || err.Error() != "sql: unterminated string literal" {
		t.Errorf("unterminated literal: %v", err)
	}
}

// FuzzStatementTemplate: a text's template parses to the text's own AST
// with each string literal a $n past the text's highest, bound to that
// literal's value — or the template and the text both fail.
func FuzzStatementTemplate(f *testing.F) {
	for _, s := range []string{
		"UPDATE subscriber SET vlr_location = $1 WHERE sub_nbr = '000000000000017'",
		"SELECT s_id FROM subscriber WHERE sub_nbr = '000000000000017'",
		"SELECT c_id FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_last = 'BARBARBAR'",
		"INSERT INTO history VALUES ($1, $2, $3, $4, 'payment')",
		"INSERT INTO t VALUES ('it''s', '', '''')",
		"SELECT * FROM t -- it's\n WHERE a = 'x'",
		"SELECT * FROM t WHERE a = 'open",
		"SELECT * FROM t WHERE a = $0 AND b = 'x'",
		"SELECT * FROM t WHERE a = $3 AND b = 'x'",
		"SELECT * FROM t WHERE a = 'x'1",
		"UPDATE t SET a = 'x' + 'y' WHERE b = $9223372036854775807 AND c = 'z'",
		"SELECT * FROM t WHERE a = $99999999999999999999 AND b = 'x'",
		"EXPLAIN SELECT * FROM t WHERE a = " + network.QuoteString("o'brien"),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		raw, rawErr := Parse(text)
		// A Templater whose scratch already holds another template.
		var tp Templater
		tp.Template("INSERT INTO t VALUES ('a', 'it''s', $1, 'ccc', 'dddd', 'eeeee')", nil)
		tmpl, lits, maxParam, err := templateOf(&tp, text)
		if err != nil {
			if rawErr == nil || rawErr.Error() != err.Error() {
				t.Fatalf("%q: template error %v, parse error %v", text, err, rawErr)
			}
			return
		}
		if len(lits) == 0 && tmpl != text {
			t.Fatalf("%q: no literals but template %q", text, tmpl)
		}
		st, err := Parse(tmpl)
		if (err == nil) != (rawErr == nil) {
			t.Fatalf("%q: parse error %v, template %q parse error %v", text, rawErr, tmpl, err)
		}
		if err == nil && !sameAST(reflect.ValueOf(raw), reflect.ValueOf(st), maxParam, lits) {
			t.Fatalf("%q: template %q bound to %v parses to\n%#v\nthe text to\n%#v", text, tmpl, lits, st, raw)
		}
	})
}

var (
	literalType = reflect.TypeOf(Literal{})
	paramType   = reflect.TypeOf(Param{})
)

// sameAST reports whether tmpl, parsed from a text's template, is raw,
// parsed from the text, with Param{maxParam+i} standing for the string
// Literal lits[i-1]. With lits, tmpl may hold no string literal.
func sameAST(raw, tmpl reflect.Value, maxParam int, lits []storage.Value) bool {
	if raw.Kind() == reflect.Interface || raw.Kind() == reflect.Pointer {
		if raw.IsNil() || tmpl.IsNil() {
			return raw.IsNil() && tmpl.IsNil()
		}
		return sameAST(raw.Elem(), tmpl.Elem(), maxParam, lits)
	}
	switch {
	case raw.Type() == literalType && tmpl.Type() == paramType:
		v, n := raw.Interface().(Literal).Val, tmpl.Interface().(Param).N-maxParam
		return v.Kind() == storage.KindString && n >= 1 && n <= len(lits) && lits[n-1].Str() == v.Str()
	case raw.Type() != tmpl.Type():
		return false
	case raw.Type() == literalType:
		a, b := raw.Interface().(Literal).Val, tmpl.Interface().(Literal).Val
		return a.Kind() == b.Kind() && a.String() == b.String() && (lits == nil || b.Kind() != storage.KindString)
	case raw.Type() == paramType:
		return raw.Interface() == tmpl.Interface() && raw.Interface().(Param).N <= maxParam
	}
	switch raw.Kind() {
	case reflect.Struct:
		for i := 0; i < raw.NumField(); i++ {
			if !sameAST(raw.Field(i), tmpl.Field(i), maxParam, lits) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if raw.Len() != tmpl.Len() {
			return false
		}
		for i := 0; i < raw.Len(); i++ {
			if !sameAST(raw.Index(i), tmpl.Index(i), maxParam, lits) {
				return false
			}
		}
		return true
	}
	return raw.Interface() == tmpl.Interface()
}

func TestCmpOpString(t *testing.T) {
	if OpNe.String() != "<>" || OpGe.String() != ">=" {
		t.Fatalf("op names")
	}
}

// TestKeywordTable: each entry of the lexer's keyword table is a lower-case
// word under its upper-case spelling, and every word the parser looks up in
// a table of its own or matches by name is in it, so those words lex without allocating when
// written in capitals.
func TestKeywordTable(t *testing.T) {
	for upper, word := range keywords {
		if upper != strings.ToUpper(word) || word != strings.ToLower(word) {
			t.Errorf("keyword %q maps to %q", upper, word)
		}
	}
	var words []string
	for w := range reserved {
		words = append(words, w)
	}
	for w := range aggNames {
		words = append(words, w)
	}
	for w := range typeNames {
		words = append(words, w)
	}
	// The words parser.keyword matches that no table of the parser holds.
	words = append(words, "analyze", "create", "explain", "index", "key", "not",
		"null", "primary", "table", "unique", "using", "hash", "btree")
	for _, w := range words {
		if keywords[strings.ToUpper(w)] != w {
			t.Errorf("the parser's word %q is not in the keyword table", w)
		}
	}
	toks, err := lex(nil, "SELECT COUNT(*) FROM t WHERE a = 'x' AND Mixed = NULL")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tk := range toks {
		got = append(got, tk.text)
	}
	want := []string{"select", "count", "(", "*", ")", "from", "t", "where", "a", "=", "x", "and", "mixed", "=", "null", ""}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokens %q, want %q", got, want)
	}
}
