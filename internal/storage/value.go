// Package storage implements the in-memory MVCC table storage of the
// NoisePage-like DBMS substrate: typed values, schemas, and version-chained
// tuple slots grouped into blocks. The physical layout bookkeeping (bytes
// per column, block working sets) feeds the simulated cost model, which is
// what the behavior models ultimately learn.
package storage

import (
	"fmt"
	"math"
	"strconv"
)

// Kind is a SQL value type.
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	}
	return "UNKNOWN"
}

// Value is one SQL value. The zero value is SQL NULL. A cell is 32 bytes:
// an INT and a FLOAT are never both present, so they share one word, read
// through AsInt and AsFloat.
type Value struct {
	Kind Kind
	// num holds a KindInt as uint64(v) and a KindFloat as its IEEE 754 bits.
	num uint64
	Str string
}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{Kind: KindInt, num: uint64(v)} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{Kind: KindFloat, num: math.Float64bits(v)} }

// NewString returns a string value.
func NewString(v string) Value { return Value{Kind: KindString, Str: v} }

// Null returns SQL NULL.
func Null() Value { return Value{} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat converts numeric values to float64 (NULL and strings yield 0).
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(int64(v.num))
	case KindFloat:
		return math.Float64frombits(v.num)
	}
	return 0
}

// AsInt converts numeric values to int64.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt:
		return int64(v.num)
	case KindFloat:
		return int64(math.Float64frombits(v.num))
	}
	return 0
}

// Size returns the value's storage footprint in bytes (used by the cost
// model and the user-level memory probe).
func (v Value) Size() int64 {
	switch v.Kind {
	case KindInt, KindFloat:
		return 8
	case KindString:
		return int64(len(v.Str)) + 8
	}
	return 1
}

// Compare orders two values: -1, 0, or +1. NULL sorts first. Mixed
// numeric kinds compare numerically; other kind mismatches compare by kind.
func (v Value) Compare(o Value) int {
	if v.Kind == KindNull || o.Kind == KindNull {
		switch {
		case v.Kind == o.Kind:
			return 0
		case v.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if (v.Kind == KindInt || v.Kind == KindFloat) && (o.Kind == KindInt || o.Kind == KindFloat) {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.Kind != o.Kind {
		if v.Kind < o.Kind {
			return -1
		}
		return 1
	}
	switch {
	case v.Str < o.Str:
		return -1
	case v.Str > o.Str:
		return 1
	default:
		return 0
	}
}

// Equal reports value equality under Compare semantics.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// String renders the value for result sets.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case KindString:
		return v.Str
	}
	return fmt.Sprintf("?%d", v.Kind)
}

// AppendText appends String's rendering of the value to b.
func (v Value) AppendText(b []byte) []byte {
	switch v.Kind {
	case KindInt:
		return strconv.AppendInt(b, v.AsInt(), 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.AsFloat(), 'g', -1, 64)
	}
	return append(b, v.String()...)
}

// Row is one tuple's values in schema order.
type Row []Value

// Clone deep-copies a row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Size returns the row's total byte footprint.
func (r Row) Size() int64 {
	var n int64
	for _, v := range r {
		n += v.Size()
	}
	return n
}
