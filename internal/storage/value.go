// Package storage implements the in-memory MVCC table storage of the
// NoisePage-like DBMS substrate: typed values, schemas, and version-chained
// tuple slots grouped into blocks. The physical layout bookkeeping (bytes
// per column, block working sets) feeds the simulated cost model, which is
// what the behavior models ultimately learn.
package storage

import (
	"math"
	"strconv"
	"unsafe"
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

// Value is one SQL value. The zero value is SQL NULL. A cell is 16 bytes,
// one pointer word and one payload word (DESIGN.md §4, *The cell*):
//
//	kind    p                    n
//	NULL    nil                  0
//	INT     &intTag              uint64(v)
//	FLOAT   &floatTag            IEEE 754 bits
//	""      &emptyTag            0
//	string  the string's data    its length
//
// The leading [0]func() makes == on two Values a compile error: a string
// cell holds an address, so equality is by content, through Compare.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
}

// The tags a non-string cell points at. Each is one byte, so each has an
// address of its own; no string's data can share one.
var intTag, floatTag, emptyTag byte

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{p: unsafe.Pointer(&intTag), n: uint64(v)} }

// NewFloat returns a float value.
func NewFloat(v float64) Value {
	return Value{p: unsafe.Pointer(&floatTag), n: math.Float64bits(v)}
}

// NewString returns a string value.
func NewString(v string) Value {
	if len(v) == 0 {
		return Value{p: unsafe.Pointer(&emptyTag)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// Null returns SQL NULL.
func Null() Value { return Value{} }

// Kind returns the value's type.
func (v Value) Kind() Kind {
	switch v.p {
	case nil:
		return KindNull
	case unsafe.Pointer(&intTag):
		return KindInt
	case unsafe.Pointer(&floatTag):
		return KindFloat
	}
	return KindString
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.p == nil }

// Str returns a string value's text, and "" for every other kind.
func (v Value) Str() string {
	if v.Kind() != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

// AsFloat converts numeric values to float64 (NULL and strings yield 0).
func (v Value) AsFloat() float64 {
	switch v.Kind() {
	case KindInt:
		return float64(int64(v.n))
	case KindFloat:
		return math.Float64frombits(v.n)
	}
	return 0
}

// AsInt converts numeric values to int64.
func (v Value) AsInt() int64 {
	switch v.Kind() {
	case KindInt:
		return int64(v.n)
	case KindFloat:
		return int64(math.Float64frombits(v.n))
	}
	return 0
}

// Size returns the value's storage footprint in bytes (used by the cost
// model and the user-level memory probe).
func (v Value) Size() int64 {
	switch v.Kind() {
	case KindInt, KindFloat:
		return 8
	case KindString:
		return int64(v.n) + 8
	}
	return 1
}

// Compare orders two values: -1, 0, or +1. NULL sorts first. Mixed
// numeric kinds compare numerically; other kind mismatches compare by kind.
func (v Value) Compare(o Value) int {
	vk, ok := v.Kind(), o.Kind()
	if vk == KindNull || ok == KindNull {
		switch {
		case vk == ok:
			return 0
		case vk == KindNull:
			return -1
		default:
			return 1
		}
	}
	if (vk == KindInt || vk == KindFloat) && (ok == KindInt || ok == KindFloat) {
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
	if vk != ok {
		if vk < ok {
			return -1
		}
		return 1
	}
	a, b := v.Str(), o.Str()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// String renders the value for result sets.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	}
	return v.Str()
}

// AppendText appends String's rendering of the value to b.
func (v Value) AppendText(b []byte) []byte {
	switch v.Kind() {
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
