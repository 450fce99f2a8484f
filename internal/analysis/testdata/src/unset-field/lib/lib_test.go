package lib

import "testing"

// The loader reads no test files, so this write sets nothing.
func TestOnlyField(t *testing.T) {
	if Use(Opts{TestOnly: 1}) != 1 {
		t.Fatal("TestOnly")
	}
}
