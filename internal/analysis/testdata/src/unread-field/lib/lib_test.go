package lib

import "testing"

// The loader reads no test files, so this read keeps nothing alive.
func TestOnlyField(t *testing.T) {
	s := New(&Sink{}, new(int))
	s.Record(2)
	if s.TestOnly != 2 {
		t.Fatal("TestOnly")
	}
}
