package storage

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// refCell is the three-field cell the 16-byte Value replaced: a kind, the
// INT/FLOAT bits and a string. Its methods are the old Value's with only the
// receiver renamed, so FuzzValueCell holds the tagged cell to them.
type refCell struct {
	kind Kind
	num  uint64
	str  string
}

func (v refCell) asFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(int64(v.num))
	case KindFloat:
		return math.Float64frombits(v.num)
	}
	return 0
}

func (v refCell) asInt() int64 {
	switch v.kind {
	case KindInt:
		return int64(v.num)
	case KindFloat:
		return int64(math.Float64frombits(v.num))
	}
	return 0
}

func (v refCell) size() int64 {
	switch v.kind {
	case KindInt, KindFloat:
		return 8
	case KindString:
		return int64(len(v.str)) + 8
	}
	return 1
}

func (v refCell) compare(o refCell) int {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if (v.kind == KindInt || v.kind == KindFloat) && (o.kind == KindInt || o.kind == KindFloat) {
		a, b := v.asFloat(), o.asFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch {
	case v.str < o.str:
		return -1
	case v.str > o.str:
		return 1
	default:
		return 0
	}
}

func (v refCell) text() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.asInt(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.asFloat(), 'g', -1, 64)
	}
	return v.str
}

// cellPair is one input built both ways.
type cellPair struct {
	v Value
	r refCell
}

// makeCell builds kind k%4 from n (an INT's bits or a FLOAT's) or s.
func makeCell(k uint8, n uint64, s string) cellPair {
	switch Kind(k % 4) {
	case KindInt:
		return cellPair{NewInt(int64(n)), refCell{kind: KindInt, num: n}}
	case KindFloat:
		f := math.Float64frombits(n)
		return cellPair{NewFloat(f), refCell{kind: KindFloat, num: math.Float64bits(f)}}
	case KindString:
		return cellPair{NewString(s), refCell{kind: KindString, str: s}}
	}
	return cellPair{Null(), refCell{}}
}

func checkCell(t *testing.T, c cellPair) {
	t.Helper()
	v, r := c.v, c.r
	if got := v.Kind(); got != r.kind {
		t.Fatalf("%+v: Kind = %v", r, got)
	}
	if got := v.IsNull(); got != (r.kind == KindNull) {
		t.Errorf("%+v: IsNull = %v", r, got)
	}
	if got, want := v.AsInt(), r.asInt(); got != want {
		t.Errorf("%+v: AsInt = %d, want %d", r, got, want)
	}
	if got, want := math.Float64bits(v.AsFloat()), math.Float64bits(r.asFloat()); got != want {
		t.Errorf("%+v: AsFloat bits = %#x, want %#x", r, got, want)
	}
	if got := v.Str(); got != r.str {
		t.Errorf("%+v: Str = %q", r, got)
	}
	if got, want := v.Size(), r.size(); got != want {
		t.Errorf("%+v: Size = %d, want %d", r, got, want)
	}
	if got, want := v.String(), r.text(); got != want {
		t.Errorf("%+v: String = %q, want %q", r, got, want)
	}
	if got, want := string(v.AppendText([]byte("x"))), "x"+r.text(); got != want {
		t.Errorf("%+v: AppendText = %q, want %q", r, got, want)
	}
}

// FuzzValueCell drives the 16-byte cell and refCell with the same inputs:
// two cells of any kinds, their texts sliced from one shared allocation,
// and (mode bit 0) the second text copied into an allocation of its own.
// Every accessor must agree on each cell, and Compare and Equal on every
// ordered pair, including each cell against a copy of itself.
func FuzzValueCell(f *testing.F) {
	const null, i, fl, s = uint8(KindNull), uint8(KindInt), uint8(KindFloat), uint8(KindString)
	const (
		zero, seven    uint64 = 0, 7
		minInt, maxInt uint64 = 1 << 63, 1<<63 - 1
		two53plus1     uint64 = 1<<53 + 1
		negOne         uint64 = 0xbff0000000000000 // -1.0
		two53          uint64 = 0x4340000000000000 // 2^53
		nan            uint64 = 0x7ff8000000000001
		negZero        uint64 = 0x8000000000000000
		posInf         uint64 = 0x7ff0000000000000
		negInf         uint64 = 0xfff0000000000000
	)
	f.Add(i, minInt, "", i, maxInt, "", uint8(0))
	f.Add(i, ^zero, "", fl, negOne, "", uint8(0))
	f.Add(fl, nan, "", fl, nan, "", uint8(0))
	f.Add(fl, negZero, "", fl, zero, "", uint8(0))
	f.Add(fl, posInf, "", fl, negInf, "", uint8(0))
	f.Add(s, zero, "", null, zero, "", uint8(0))
	f.Add(s, zero, "abc", s, zero, "abc", uint8(0))
	f.Add(s, zero, "abc", s, zero, "abc", uint8(1))
	f.Add(s, zero, "0", i, zero, "", uint8(0))
	f.Add(i, two53plus1, "", fl, two53, "", uint8(0))
	f.Add(i, seven, "", s, seven, "", uint8(1))
	f.Fuzz(func(t *testing.T, ka uint8, na uint64, sa string, kb uint8, nb uint64, sb string, mode uint8) {
		buf := string(append([]byte(sa), sb...))
		sa, sb = buf[:len(sa)], buf[len(sa):]
		if mode&1 != 0 {
			sb = strings.Clone(sb)
		}
		cells := []cellPair{makeCell(ka, na, sa), makeCell(kb, nb, sb)}
		for _, c := range cells[:2] {
			checkCell(t, c)
			cp := c
			if c.r.kind == KindString {
				cp.v = NewString(strings.Clone(c.v.Str()))
			}
			cells = append(cells, cp)
		}
		for _, a := range cells {
			for _, b := range cells {
				want := a.r.compare(b.r)
				if got := a.v.Compare(b.v); got != want {
					t.Errorf("%+v Compare %+v = %d, want %d", a.r, b.r, got, want)
				}
				if got := a.v.Equal(b.v); got != (want == 0) {
					t.Errorf("%+v Equal %+v = %v", a.r, b.r, got)
				}
			}
		}
	})
}
