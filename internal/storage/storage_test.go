package storage

import (
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndConversions(t *testing.T) {
	if !Null().IsNull() {
		t.Fatalf("Null must be null")
	}
	if NewInt(5).AsFloat() != 5.0 || NewFloat(2.5).AsInt() != 2 {
		t.Fatalf("conversions")
	}
	if NewString("x").AsFloat() != 0 || Null().AsInt() != 0 {
		t.Fatalf("non-numeric conversions yield 0")
	}
	if NewInt(3).String() != "3" || NewString("ab").String() != "ab" || Null().String() != "NULL" {
		t.Fatalf("string rendering")
	}
	if NewFloat(1.5).String() != "1.5" {
		t.Fatalf("float rendering: %s", NewFloat(1.5).String())
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.5), -1}, // mixed numeric
		{NewFloat(3.0), NewInt(3), 0},
		{NewString("a"), NewString("b"), -1},
		{Null(), NewInt(0), -1}, // NULL sorts first
		{NewInt(0), Null(), 1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Fatalf("Compare(%v,%v)=%d want %d", c.a, c.b, got, c.want)
		}
	}
	if NewInt(7).Compare(NewFloat(7)) != 0 {
		t.Fatalf("numeric equality across kinds")
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := NewInt(a), NewInt(b)
		return x.Compare(y) == -y.Compare(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueSizeAndRow(t *testing.T) {
	if NewInt(1).Size() != 8 || NewString("abcd").Size() != 12 {
		t.Fatalf("sizes")
	}
	r := Row{NewInt(1), NewString("ab")}
	if r.Size() != 18 {
		t.Fatalf("row size: %d", r.Size())
	}
}

func TestSchemaBasics(t *testing.T) {
	s := MustSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "data", Kind: KindString, FixedBytes: 100},
	)
	if s.NumColumns() != 2 || s.ColumnIndex("data") != 1 || s.ColumnIndex("zzz") != -1 {
		t.Fatalf("lookup")
	}
	if s.RowWidth() != 108 {
		t.Fatalf("row width: %d", s.RowWidth())
	}
	if s.ProjectionWidth([]int{0}) != 8 {
		t.Fatalf("projection width")
	}
	if _, err := NewSchema(Column{Name: "a"}, Column{Name: "a"}); err == nil {
		t.Fatalf("duplicate columns must fail")
	}
}

func TestSchemaValidate(t *testing.T) {
	s := MustSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "s", Kind: KindString})
	if err := s.Validate(Row{NewInt(1), NewString("x")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(Row{NewInt(1), Null()}); err != nil {
		t.Fatalf("NULL matches any column: %v", err)
	}
	if err := s.Validate(Row{NewInt(1)}); err == nil {
		t.Fatalf("arity mismatch must fail")
	}
	if err := s.Validate(Row{NewString("x"), NewString("y")}); err == nil {
		t.Fatalf("kind mismatch must fail")
	}
}

func TestTableSlots(t *testing.T) {
	s := MustSchema(Column{Name: "id", Kind: KindInt})
	tbl := NewTable("t", s)
	if tbl.Name() != "t" || tbl.Schema() != s {
		t.Fatalf("metadata")
	}
	v1 := &Version{Begin: 1, End: InfinityTS, Values: Row{NewInt(10)}}
	id := tbl.Append(v1)
	if tbl.Head(id) != v1 {
		t.Fatalf("head after append")
	}
	if tbl.Head(TupleID(99)) != nil || tbl.Head(InvalidTupleID) != nil {
		t.Fatalf("out of range heads must be nil")
	}
	v2 := &Version{Begin: 2, End: InfinityTS, Values: Row{NewInt(11)}, Next: v1}
	if !tbl.SetHead(id, v2) || tbl.Head(id) != v2 || tbl.SetHead(TupleID(50), v1) {
		t.Fatalf("SetHead bounds")
	}
}

func TestTableScanAndSizes(t *testing.T) {
	s := MustSchema(Column{Name: "id", Kind: KindInt})
	tbl := NewTable("t", s)
	for i := 0; i < 10; i++ {
		tbl.Append(&Version{Begin: 1, End: InfinityTS, Values: Row{NewInt(int64(i))}})
	}
	if tbl.NumSlots() != 10 || tbl.NumBlocks() != 1 {
		t.Fatalf("slots/blocks: %d/%d", tbl.NumSlots(), tbl.NumBlocks())
	}
	if tbl.DataBytes() != 80 {
		t.Fatalf("data bytes: %d", tbl.DataBytes())
	}
	seen := 0
	tbl.ScanSlots(func(id TupleID, head *Version) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Fatalf("early-exit scan: %d", seen)
	}
}
