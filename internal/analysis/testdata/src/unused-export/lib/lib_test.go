package lib

import "testing"

// The loader reads no test files, so these calls keep nothing alive.
func TestHooks(t *testing.T) {
	if TestOnly()+Hook() != 4 {
		t.Fatal("hooks")
	}
}
