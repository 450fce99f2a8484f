package storage

import (
	"math"
	"testing"
	"unsafe"
)

// TestValueLayout holds the cell to 32 bytes — an INT and a FLOAT share one
// word — and every accessor to what it returned when each had a field of
// its own: the table below was printed by the 40-byte Value, on amd64.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
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
