package uffix

import "testing"

// The loader reads no test files, so this call does not keep testOnly alive.
func TestTestOnly(t *testing.T) {
	if testOnly() != 2 || (&recv{}).testOnlyMethod() != 7 {
		t.Fatal("testOnly")
	}
}
