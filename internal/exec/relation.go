package exec

import (
	"fmt"

	"tscout/internal/sql"
	"tscout/internal/storage"
)

// relation is the column binding metadata of an intermediate result —
// one table, or the concatenation a join produces — for name resolution
// during analysis. It holds no rows: rows belong to one execution.
type relation struct {
	tables []boundTable
	// offs[i] is the row position of tables[i]'s first column.
	offs []int
	// numCols is the row's length.
	numCols int
}

// boundTable is one FROM/JOIN/DML table under the name that qualifies its
// columns.
type boundTable struct {
	binding string
	schema  *storage.Schema
}

// newRelation builds the metadata of the tables' concatenation, in order.
func newRelation(tables ...boundTable) *relation {
	r := &relation{tables: tables, offs: make([]int, len(tables))}
	for i, t := range tables {
		r.offs[i] = r.numCols
		r.numCols += t.schema.NumColumns()
	}
	return r
}

// resolve maps a column reference to a row position. A bare name two
// tables share is ambiguous; a qualified name two tables share (a
// self-join without aliases) resolves to the later one.
func (r *relation) resolve(c sql.ColRef) (int, error) {
	if c.Table != "" {
		for i := len(r.tables) - 1; i >= 0; i-- {
			if r.tables[i].binding != c.Table {
				continue
			}
			if idx := r.tables[i].schema.ColumnIndex(c.Name); idx >= 0 {
				return r.offs[i] + idx, nil
			}
		}
		return 0, fmt.Errorf("exec: unknown column %s", c)
	}
	pos := -1
	for i, t := range r.tables {
		if idx := t.schema.ColumnIndex(c.Name); idx >= 0 {
			if pos >= 0 {
				return 0, fmt.Errorf("exec: ambiguous column %s", c.Name)
			}
			pos = r.offs[i] + idx
		}
	}
	if pos < 0 {
		return 0, fmt.Errorf("exec: unknown column %s", c.Name)
	}
	return pos, nil
}

// qualifiedNames lists every column as "binding.col", in row order: what
// SELECT * calls its output.
func (r *relation) qualifiedNames() []string {
	names := make([]string, 0, r.numCols)
	for _, t := range r.tables {
		for _, c := range t.schema.Columns() {
			names = append(names, t.binding+"."+c.Name)
		}
	}
	return names
}

// width estimates the bytes of one row.
func (r *relation) width() int64 {
	var w int64
	for _, t := range r.tables {
		w += t.schema.RowWidth()
	}
	return w
}

func bareName(qualified string) string {
	for i := len(qualified) - 1; i >= 0; i-- {
		if qualified[i] == '.' {
			return qualified[i+1:]
		}
	}
	return qualified
}

// compiledPred is a WHERE conjunct resolved against a relation.
type compiledPred struct {
	col int
	op  sql.CmpOp
	val storage.Value
}

// eval reports whether row satisfies the predicate. Receiver and cell are
// taken by pointer (a scan calls this once per predicate per tuple), and
// the common INT against INT case is compared here the way Value.Compare
// compares any two numbers: through float64.
func (p *compiledPred) eval(row storage.Row) bool {
	cell := &row[p.col]
	var c int
	if cell.Kind == storage.KindInt && p.val.Kind == storage.KindInt {
		a, b := cell.AsFloat(), p.val.AsFloat()
		switch {
		case a < b:
			c = -1
		case a > b:
			c = 1
		}
	} else {
		c = cell.Compare(p.val)
	}
	switch p.op {
	case sql.OpEq:
		return c == 0
	case sql.OpNe:
		return c != 0
	case sql.OpLt:
		return c < 0
	case sql.OpLe:
		return c <= 0
	case sql.OpGt:
		return c > 0
	case sql.OpGe:
		return c >= 0
	}
	return false
}

// scalar is a value expression compiled once per statement: a folded
// literal, a $n slot, a resolved column position, or arithmetic over those.
type scalar struct {
	kind scalarKind
	lit  storage.Value // scalarLit
	n    int           // scalarParam: 1-based $n
	col  int           // scalarCol: row position (unused without a relation)
	ref  sql.ColRef    // scalarCol: the reference, for the no-input-row error
	op   byte          // scalarBinary
	l, r *scalar       // scalarBinary
}

type scalarKind uint8

const (
	scalarLit scalarKind = iota
	scalarParam
	scalarCol
	scalarBinary
)

// compileScalar resolves e's column references against rel. With a nil rel
// (predicate operands, INSERT values) a column reference stays legal to
// compile and fails when evaluated, as it has no input row to read.
// Arithmetic over literals is folded unless it fails; then the failure is
// left for evaluation to report.
func compileScalar(e sql.Expr, rel *relation) (scalar, error) {
	switch x := e.(type) {
	case sql.Literal:
		return scalar{kind: scalarLit, lit: x.Val}, nil
	case sql.Param:
		return scalar{kind: scalarParam, n: x.N}, nil
	case sql.ColExpr:
		s := scalar{kind: scalarCol, ref: x.Ref}
		if rel != nil {
			i, err := rel.resolve(x.Ref)
			if err != nil {
				return scalar{}, err
			}
			s.col = i
		}
		return s, nil
	case sql.Binary:
		l, err := compileScalar(x.Left, rel)
		if err != nil {
			return scalar{}, err
		}
		r, err := compileScalar(x.Right, rel)
		if err != nil {
			return scalar{}, err
		}
		if l.kind == scalarLit && r.kind == scalarLit {
			if v, err := applyBinary(l.lit, x.Op, r.lit); err == nil {
				return scalar{kind: scalarLit, lit: v}, nil
			}
		}
		return scalar{kind: scalarBinary, op: x.Op, l: &l, r: &r}, nil
	}
	return scalar{}, fmt.Errorf("exec: unsupported expression %T", e)
}

// eval binds the expression to one execution's parameters and, for column
// references, one input row (nil where there is none).
func (s *scalar) eval(row storage.Row, params []storage.Value) (storage.Value, error) {
	switch s.kind {
	case scalarLit:
		return s.lit, nil
	case scalarParam:
		if s.n < 1 || s.n > len(params) {
			return storage.Value{}, fmt.Errorf("exec: parameter $%d not bound (%d given)", s.n, len(params))
		}
		return params[s.n-1], nil
	case scalarCol:
		if row == nil {
			return storage.Value{}, fmt.Errorf("exec: column %s in a context without input rows", s.ref)
		}
		return row[s.col], nil
	}
	l, err := s.l.eval(row, params)
	if err != nil {
		return storage.Value{}, err
	}
	r, err := s.r.eval(row, params)
	if err != nil {
		return storage.Value{}, err
	}
	return applyBinary(l, s.op, r)
}

func applyBinary(l storage.Value, op byte, r storage.Value) (storage.Value, error) {
	if l.Kind == storage.KindString || r.Kind == storage.KindString {
		if op == '+' {
			return storage.NewString(l.String() + r.String()), nil
		}
		return storage.Value{}, fmt.Errorf("exec: operator %c on strings", op)
	}
	if l.Kind == storage.KindFloat || r.Kind == storage.KindFloat {
		a, b := l.AsFloat(), r.AsFloat()
		switch op {
		case '+':
			return storage.NewFloat(a + b), nil
		case '-':
			return storage.NewFloat(a - b), nil
		case '*':
			return storage.NewFloat(a * b), nil
		case '/':
			if b == 0 {
				return storage.Null(), nil
			}
			return storage.NewFloat(a / b), nil
		}
	}
	a, b := l.AsInt(), r.AsInt()
	switch op {
	case '+':
		return storage.NewInt(a + b), nil
	case '-':
		return storage.NewInt(a - b), nil
	case '*':
		return storage.NewInt(a * b), nil
	case '/':
		if b == 0 {
			return storage.Null(), nil
		}
		return storage.NewInt(a / b), nil
	}
	return storage.Value{}, fmt.Errorf("exec: unknown operator %c", op)
}
