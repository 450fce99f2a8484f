package sql

import (
	"fmt"
	"strconv"
	"strings"

	"tscout/internal/storage"
)

// Parse parses one SQL statement.
func Parse(input string) (Statement, error) {
	toks, err := lex(nil, input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: input}
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks []token
	i    int
	src  string
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (near position %d in %q)",
		fmt.Sprintf(format, args...), p.peek().pos, truncate(p.src, 80))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// keyword consumes an identifier token equal to kw (case-insensitive).
func (p *parser) keyword(kw string) bool {
	if p.peek().kind == tokIdent && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errf("expected %s, got %s", strings.ToUpper(kw), p.peek())
	}
	return nil
}

func (p *parser) symbol(sym string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == sym {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.symbol(sym) {
		return p.errf("expected %q, got %s", sym, p.peek())
	}
	return nil
}

func (p *parser) ident() (string, error) {
	if p.peek().kind != tokIdent {
		return "", p.errf("expected identifier, got %s", p.peek())
	}
	return p.next().text, nil
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.keyword("select"):
		return p.selectStmt()
	case p.keyword("insert"):
		return p.insertStmt()
	case p.keyword("update"):
		return p.updateStmt()
	case p.keyword("delete"):
		return p.deleteStmt()
	case p.keyword("create"):
		return p.createStmt()
	case p.keyword("explain"):
		analyze := p.keyword("analyze")
		inner, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Analyze: analyze, Stmt: inner}, nil
	}
	return nil, p.errf("expected SELECT, INSERT, UPDATE, DELETE or CREATE, got %s", p.peek())
}

var typeNames = map[string]storage.Kind{
	"int": storage.KindInt, "bigint": storage.KindInt, "integer": storage.KindInt,
	"float": storage.KindFloat, "double": storage.KindFloat, "decimal": storage.KindFloat,
	"varchar": storage.KindString, "text": storage.KindString,
}

func (p *parser) createStmt() (Statement, error) {
	unique := p.keyword("unique")
	switch {
	case !unique && p.keyword("table"):
		return p.createTable()
	case p.keyword("index"):
		return p.createIndex(unique)
	}
	return nil, p.errf("expected TABLE or [UNIQUE] INDEX after CREATE")
}

func (p *parser) createTable() (*CreateTableStmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &CreateTableStmt{Name: name}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		if p.keyword("primary") {
			if err := p.expectKeyword("key"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			for {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				s.PrimaryKey = append(s.PrimaryKey, col)
				if !p.symbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.columnDef()
			if err != nil {
				return nil, err
			}
			if col.PrimaryKey {
				s.PrimaryKey = append(s.PrimaryKey, col.Name)
			}
			s.Columns = append(s.Columns, col)
		}
		if !p.symbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if len(s.Columns) == 0 {
		return nil, p.errf("CREATE TABLE needs at least one column")
	}
	return s, nil
}

func (p *parser) columnDef() (ColumnDef, error) {
	name, err := p.ident()
	if err != nil {
		return ColumnDef{}, err
	}
	tname, err := p.ident()
	if err != nil {
		return ColumnDef{}, err
	}
	kind, ok := typeNames[tname]
	if !ok {
		return ColumnDef{}, p.errf("unknown type %q", tname)
	}
	def := ColumnDef{Name: name, Kind: kind}
	if p.symbol("(") {
		if p.peek().kind != tokNumber {
			return ColumnDef{}, p.errf("expected type width")
		}
		n, err := strconv.ParseInt(p.next().text, 10, 64)
		if err != nil || n <= 0 {
			return ColumnDef{}, p.errf("bad type width")
		}
		if kind == storage.KindString {
			def.FixedBytes = n
		}
		if err := p.expectSymbol(")"); err != nil {
			return ColumnDef{}, err
		}
	}
	if p.keyword("primary") {
		if err := p.expectKeyword("key"); err != nil {
			return ColumnDef{}, err
		}
		def.PrimaryKey = true
	}
	p.keyword("not") // NOT NULL accepted and ignored
	p.keyword("null")
	return def, nil
}

func (p *parser) createIndex(unique bool) (*CreateIndexStmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &CreateIndexStmt{Name: name, Table: table, Unique: unique}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		s.Columns = append(s.Columns, col)
		if !p.symbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if p.keyword("using") {
		kind, err := p.ident()
		if err != nil {
			return nil, err
		}
		switch kind {
		case "hash":
			s.Hash = true
		case "btree":
		default:
			return nil, p.errf("unknown index kind %q", kind)
		}
	}
	return s, nil
}

var aggNames = map[string]AggKind{
	"count": AggCount, "sum": AggSum, "avg": AggAvg, "min": AggMin, "max": AggMax,
}

func (p *parser) selectStmt() (*SelectStmt, error) {
	s := &SelectStmt{Limit: -1}
	for {
		e, err := p.selectExpr()
		if err != nil {
			return nil, err
		}
		s.Exprs = append(s.Exprs, e)
		if !p.symbol(",") {
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	tr, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	s.From = tr
	for p.keyword("join") {
		j, err := p.joinClause()
		if err != nil {
			return nil, err
		}
		s.Joins = append(s.Joins, j)
	}
	if p.keyword("where") {
		s.Where, err = p.predicates()
		if err != nil {
			return nil, err
		}
	}
	if p.keyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.colRef()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, c)
			if !p.symbol(",") {
				break
			}
		}
	}
	if p.keyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.colRef()
			if err != nil {
				return nil, err
			}
			k := OrderKey{Col: c}
			if p.keyword("desc") {
				k.Desc = true
			} else {
				p.keyword("asc")
			}
			s.OrderBy = append(s.OrderBy, k)
			if !p.symbol(",") {
				break
			}
		}
	}
	if p.keyword("limit") {
		if p.peek().kind != tokNumber {
			return nil, p.errf("expected LIMIT count, got %s", p.peek())
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT count")
		}
		s.Limit = n
	}
	p.keyword("for") // FOR UPDATE is accepted and ignored
	p.keyword("update")
	return s, nil
}

func (p *parser) selectExpr() (SelectExpr, error) {
	if p.symbol("*") {
		return SelectExpr{Star: true}, nil
	}
	if p.peek().kind == tokIdent {
		if agg, ok := aggNames[p.peek().text]; ok && p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
			p.next() // agg name
			p.next() // (
			var col ColRef
			if p.symbol("*") {
				if agg != AggCount {
					return SelectExpr{}, p.errf("only COUNT accepts *")
				}
			} else {
				var err error
				col, err = p.colRef()
				if err != nil {
					return SelectExpr{}, err
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return SelectExpr{}, err
			}
			return SelectExpr{Agg: agg, Col: col}, nil
		}
	}
	c, err := p.colRef()
	if err != nil {
		return SelectExpr{}, err
	}
	return SelectExpr{Col: c}, nil
}

func (p *parser) colRef() (ColRef, error) {
	name, err := p.ident()
	if err != nil {
		return ColRef{}, err
	}
	if p.symbol(".") {
		col, err := p.ident()
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: name, Name: col}, nil
	}
	return ColRef{Name: name}, nil
}

func (p *parser) tableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Name: name}
	// Optional alias (AS x | bare identifier that is not a keyword).
	if p.keyword("as") {
		tr.Alias, err = p.ident()
		if err != nil {
			return TableRef{}, err
		}
		return tr, nil
	}
	if p.peek().kind == tokIdent && !reserved[p.peek().text] {
		tr.Alias = p.next().text
	}
	return tr, nil
}

var reserved = map[string]bool{
	"select": true, "from": true, "where": true, "join": true, "on": true,
	"group": true, "order": true, "by": true, "limit": true, "and": true,
	"insert": true, "into": true, "values": true, "update": true, "set": true,
	"delete": true, "as": true, "desc": true, "asc": true, "between": true,
	"for": true,
}

func (p *parser) joinClause() (JoinClause, error) {
	tr, err := p.tableRef()
	if err != nil {
		return JoinClause{}, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return JoinClause{}, err
	}
	left, err := p.colRef()
	if err != nil {
		return JoinClause{}, err
	}
	if err := p.expectSymbol("="); err != nil {
		return JoinClause{}, err
	}
	right, err := p.colRef()
	if err != nil {
		return JoinClause{}, err
	}
	return JoinClause{Table: tr, LeftCol: left, RightCol: right}, nil
}

var cmpOps = map[string]CmpOp{
	"=": OpEq, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) predicates() ([]Predicate, error) {
	var preds []Predicate
	for {
		col, err := p.colRef()
		if err != nil {
			return nil, err
		}
		if p.keyword("between") {
			lo, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("and"); err != nil {
				return nil, err
			}
			hi, err := p.expr()
			if err != nil {
				return nil, err
			}
			preds = append(preds,
				Predicate{Col: col, Op: OpGe, Val: lo},
				Predicate{Col: col, Op: OpLe, Val: hi})
		} else {
			if p.peek().kind != tokSymbol {
				return nil, p.errf("expected comparison operator, got %s", p.peek())
			}
			op, ok := cmpOps[p.peek().text]
			if !ok {
				return nil, p.errf("unknown comparison operator %q", p.peek().text)
			}
			p.next()
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			preds = append(preds, Predicate{Col: col, Op: op, Val: v})
		}
		if !p.keyword("and") {
			break
		}
	}
	return preds, nil
}

// expr parses an additive expression over terms.
func (p *parser) expr() (Expr, error) {
	left, err := p.term()
	if err != nil {
		return nil, err
	}
	for {
		var op byte
		switch {
		case p.symbol("+"):
			op = '+'
		case p.symbol("-"):
			op = '-'
		case p.symbol("*"):
			op = '*'
		case p.symbol("/"):
			op = '/'
		default:
			return left, nil
		}
		right, err := p.term()
		if err != nil {
			return nil, err
		}
		left = Binary{Left: left, Op: op, Right: right}
	}
}

func (p *parser) term() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return Literal{storage.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return Literal{storage.NewInt(n)}, nil
	case tokString:
		p.next()
		// The AST outlives input: keep the literal's own copy.
		return Literal{storage.NewString(strings.Clone(t.text))}, nil
	case tokParam:
		p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return nil, p.errf("bad parameter $%s", t.text)
		}
		return Param{N: n}, nil
	case tokIdent:
		if t.text == "null" {
			p.next()
			return Literal{storage.Null()}, nil
		}
		c, err := p.colRef()
		if err != nil {
			return nil, err
		}
		return ColExpr{Ref: c}, nil
	case tokSymbol:
		if t.text == "-" {
			p.next()
			inner, err := p.term()
			if err != nil {
				return nil, err
			}
			return Binary{Left: Literal{storage.NewInt(0)}, Op: '-', Right: inner}, nil
		}
		if t.text == "(" {
			p.next()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("expected expression, got %s", t)
}

func (p *parser) insertStmt() (*InsertStmt, error) {
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &InsertStmt{Table: name}
	if p.symbol("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			s.Columns = append(s.Columns, col)
			if !p.symbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.symbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, row)
		if !p.symbol(",") {
			break
		}
	}
	return s, nil
}

func (p *parser) updateStmt() (*UpdateStmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &UpdateStmt{Table: name}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Sets = append(s.Sets, SetClause{Col: col, Val: v})
		if !p.symbol(",") {
			break
		}
	}
	if p.keyword("where") {
		s.Where, err = p.predicates()
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) deleteStmt() (*DeleteStmt, error) {
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &DeleteStmt{Table: name}
	if p.keyword("where") {
		s.Where, err = p.predicates()
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}
