package storage

import "fmt"

// Column describes one table column.
type Column struct {
	Name string
	Kind Kind
	// FixedBytes overrides the size estimate for variable-width columns
	// (e.g. YCSB's 100-byte fields); 0 uses the kind's natural size.
	FixedBytes int64
}

// Width returns the column's estimated byte width.
func (c Column) Width() int64 {
	if c.FixedBytes > 0 {
		return c.FixedBytes
	}
	switch c.Kind {
	case KindInt, KindFloat:
		return 8
	case KindString:
		return 24
	}
	return 1
}

// Schema is an ordered list of columns. It is immutable once built.
type Schema struct {
	cols     []Column
	index    map[string]int
	rowWidth int64 // the sum of the columns' widths
}

// NewSchema builds a schema, rejecting duplicate column names.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: append([]Column(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("storage: duplicate column %q", c.Name)
		}
		s.index[c.Name] = i
		s.rowWidth += c.Width()
	}
	return s, nil
}

// MustSchema is NewSchema for static schemas; it panics on error.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Columns returns the schema's columns.
func (s *Schema) Columns() []Column { return s.cols }

// NumColumns returns the column count.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i'th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// RowWidth returns the estimated bytes of one full row.
func (s *Schema) RowWidth() int64 { return s.rowWidth }

// ProjectionWidth returns the estimated bytes of the selected columns,
// which is what a columnar scan actually touches.
func (s *Schema) ProjectionWidth(cols []int) int64 {
	var n int64
	for _, i := range cols {
		if i >= 0 && i < len(s.cols) {
			n += s.cols[i].Width()
		}
	}
	return n
}

// Validate checks a row against the schema (NULL matches any column).
func (s *Schema) Validate(r Row) error {
	if len(r) != len(s.cols) {
		return fmt.Errorf("storage: row has %d values, schema has %d columns", len(r), len(s.cols))
	}
	for i, v := range r {
		if k := v.Kind(); k != KindNull && k != s.cols[i].Kind {
			return fmt.Errorf("storage: column %q expects %v, got %v", s.cols[i].Name, s.cols[i].Kind, k)
		}
	}
	return nil
}
