package storage

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"
	"unsafe"
)

// TestValueLayout holds the cell to 16 bytes — a tag pointer and one
// payload word — and every accessor to what it returned when each kind had a
// field of its own: the table below was printed by the 40-byte Value, on
// amd64.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	if !(Value{}).IsNull() || (Value{}).Kind() != KindNull {
		t.Fatalf("Value{} is %v, want NULL", (Value{}).Kind())
	}
	// A string cell holds an address, so == must not compile.
	if reflect.TypeOf(Value{}).Comparable() {
		t.Fatal("Value is comparable")
	}

	const minInt, maxInt = math.MinInt64, math.MaxInt64
	cases := []struct {
		name   string
		v      Value
		asInt  int64
		asBits uint64 // math.Float64bits(AsFloat())
		str    string
		size   int64
		// cmp[j] is Compare against cases[j]: '<', '=' or '>'.
		cmp string
	}{
		{"null", Null(), 0, 0x0, "NULL", 1, "=<<<<<<<<<<<<<<<<<"},
		{"int min", NewInt(minInt), minInt, 0xc3e0000000000000, "-9223372036854775808", 8, ">=<<<<<<><<<<<<=<<"},
		{"int -1", NewInt(-1), -1, 0xbff0000000000000, "-1", 8, ">>=<<<<<><<<<<<=<<"},
		{"int 0", NewInt(0), 0, 0x0, "0", 8, ">>>=<<<<>==<<<<=<<"},
		{"int 2^53-1", NewInt(1<<53 - 1), 9007199254740991, 0x433fffffffffffff, "9007199254740991", 8, ">>>>=<<<>>>>=<<=<<"},
		{"int 2^53", NewInt(1 << 53), 9007199254740992, 0x4340000000000000, "9007199254740992", 8, ">>>>>==<>>>>>=<=<<"},
		{"int 2^53+1", NewInt(1<<53 + 1), 9007199254740993, 0x4340000000000000, "9007199254740993", 8, ">>>>>==<>>>>>=<=<<"},
		{"int max", NewInt(maxInt), maxInt, 0x43e0000000000000, "9223372036854775807", 8, ">>>>>>>=>>>>>><=<<"},
		{"float -inf", NewFloat(math.Inf(-1)), minInt, 0xfff0000000000000, "-Inf", 8, "><<<<<<<=<<<<<<=<<"},
		{"float -0", NewFloat(math.Copysign(0, -1)), 0, 0x8000000000000000, "-0", 8, ">>>=<<<<>==<<<<=<<"},
		{"float 0", NewFloat(0), 0, 0x0, "0", 8, ">>>=<<<<>==<<<<=<<"},
		{"float 1.5", NewFloat(1.5), 1, 0x3ff8000000000000, "1.5", 8, ">>>><<<<>>>=<<<=<<"},
		{"float 2^53-1", NewFloat(1<<53 - 1), 9007199254740991, 0x433fffffffffffff, "9.007199254740991e+15", 8, ">>>>=<<<>>>>=<<=<<"},
		{"float 2^53+1", NewFloat(1<<53 + 1), 9007199254740992, 0x4340000000000000, "9.007199254740992e+15", 8, ">>>>>==<>>>>>=<=<<"},
		{"float +inf", NewFloat(math.Inf(1)), minInt, 0x7ff0000000000000, "+Inf", 8, ">>>>>>>>>>>>>>==<<"},
		{"float nan", NewFloat(math.NaN()), minInt, 0x7ff8000000000001, "NaN", 8, ">===============<<"},
		{"string empty", NewString(""), 0, 0x0, "", 8, ">>>>>>>>>>>>>>>>=<"},
		{"string 0", NewString("0"), 0, 0x0, "0", 9, ">>>>>>>>>>>>>>>>>="},
	}
	for _, c := range cases {
		// int64 of an infinity or a NaN is machine-defined (the recorded
		// values are amd64's), so AsInt is held to the table only otherwise.
		f := c.v.AsFloat()
		if !math.IsInf(f, 0) && !math.IsNaN(f) {
			if got := c.v.AsInt(); got != c.asInt {
				t.Errorf("%s: AsInt = %d, want %d", c.name, got, c.asInt)
			}
		}
		if got := math.Float64bits(f); got != c.asBits {
			t.Errorf("%s: AsFloat bits = %#x, want %#x", c.name, got, c.asBits)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("%s: String = %q, want %q", c.name, got, c.str)
		}
		if got := c.v.Size(); got != c.size {
			t.Errorf("%s: Size = %d, want %d", c.name, got, c.size)
		}
		for j, o := range cases {
			if got := "<=>"[c.v.Compare(o.v)+1]; got != c.cmp[j] {
				t.Errorf("%s Compare %s = %c, want %c", c.name, o.name, got, c.cmp[j])
			}
		}
	}
}

// TestNewVersionPacksTheCells: up to maxPackedWidth cells, NewVersion's
// copy of the row starts right after the version header, in the same single
// allocation; a wider row falls back to two allocations, header and cells.
// Either way Values is a copy with no spare capacity, and a nil row (a
// tombstone) gets a bare header.
func TestNewVersionPacksTheCells(t *testing.T) {
	if v := NewVersion(nil); v.Values != nil {
		t.Fatalf("NewVersion(nil).Values = %v, want nil", v.Values)
	}
	if v := NewVersion(Row{}); v.Values == nil || len(v.Values) != 0 {
		t.Fatalf("NewVersion(Row{}).Values = %#v, want empty and non-nil", v.Values)
	}
	for width := 1; width <= maxPackedWidth+1; width++ {
		row := make(Row, width)
		for i := range row {
			row[i] = NewString(strconv.Itoa(i))
		}
		var v *Version
		allocs := testing.AllocsPerRun(10, func() { v = NewVersion(row) })
		packed := unsafe.Pointer(&v.Values[0]) == unsafe.Add(unsafe.Pointer(v), unsafe.Sizeof(Version{}))
		want, wantAllocs := true, 1.0
		if width > maxPackedWidth {
			want, wantAllocs = false, 2
		}
		if packed != want || allocs != wantAllocs {
			t.Errorf("width %d: packed %v in %v allocations, want packed %v in %v", width, packed, allocs, want, wantAllocs)
		}
		if len(v.Values) != width || cap(v.Values) != width {
			t.Fatalf("width %d: len %d cap %d", width, len(v.Values), cap(v.Values))
		}
		row[0] = NewInt(-1)
		for i, c := range v.Values {
			if c.Str() != strconv.Itoa(i) {
				t.Fatalf("width %d: cell %d is %v, want %d", width, i, c, i)
			}
		}
	}
}

// TestNewVersionBlockCarvesPackedVersions: at every width up to
// maxPackedWidth, a block is one allocation, of the 8 KB size class, of as
// many versions as fit in versionBlockBytes, linked through Next in array order and ending in nil,
// each a zero header packed with its own width NULL cells, capped at the
// width; width 0 gives bare headers with nil Values.
func TestNewVersionBlockCarvesPackedVersions(t *testing.T) {
	for width := 0; width <= maxPackedWidth; width++ {
		var (
			first *Version
			n     int
		)
		if allocs := testing.AllocsPerRun(10, func() { first, n = NewVersionBlock(width) }); allocs != 1 {
			t.Errorf("width %d: a block takes %v allocations, want 1", width, allocs)
		}
		if class := sizeClassOf(func() { first, n = NewVersionBlock(width) }); class != 8<<10 {
			t.Errorf("width %d: a block takes an object of the %d-byte size class, want 8 KB", width, class)
		}
		size := int(unsafe.Sizeof(Version{})) + width*int(unsafe.Sizeof(Value{}))
		if n*size > versionBlockBytes || (n+1)*size <= versionBlockBytes {
			t.Errorf("width %d: %d versions of %d bytes, want as many as fit in %d", width, n, size, versionBlockBytes)
		}
		got := 0
		for v := first; v != nil; v = v.Next {
			if got > 0 && uintptr(unsafe.Pointer(v)) != uintptr(unsafe.Pointer(first))+uintptr(got*size) {
				t.Fatalf("width %d: version %d is not the array's next", width, got)
			}
			if v.Begin != 0 || v.End != 0 || v.TxnID != 0 || v.Deleted {
				t.Fatalf("width %d: version %d is not a zero header: %+v", width, got, *v)
			}
			if width == 0 {
				if v.Values != nil {
					t.Fatalf("width 0: version %d has Values %#v", got, v.Values)
				}
			} else {
				if len(v.Values) != width || cap(v.Values) != width ||
					unsafe.Pointer(&v.Values[0]) != unsafe.Add(unsafe.Pointer(v), unsafe.Sizeof(Version{})) {
					t.Fatalf("width %d: version %d's cells are not its own packed ones", width, got)
				}
				for i, c := range v.Values {
					if !c.IsNull() {
						t.Fatalf("width %d: version %d cell %d is %v", width, got, i, c)
					}
				}
			}
			got++
		}
		if got != n {
			t.Errorf("width %d: the block links %d versions, reports %d", width, got, n)
		}
	}
}

// sizeClassOf returns the size class of the one object f allocates: the
// class whose allocation count f moved, or 0 if that is not exactly one.
func sizeClassOf(f func()) uint32 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // as testing.AllocsPerRun does
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection cycle allocates
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	var class uint32
	for i, c := range after.BySize {
		switch after.BySize[i].Mallocs - before.BySize[i].Mallocs {
		case 0:
		case 1:
			if class != 0 {
				return 0
			}
			class = c.Size
		default:
			return 0
		}
	}
	return class
}
