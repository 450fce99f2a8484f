package main

import (
	"strings"
	"testing"
)

// TestVetClean is the acceptance gate: every generated Collector program
// must verify and come out lint-clean as codegen emits it — no dead store,
// no dead code, no foldable constant — with the instruction total the
// golden file of internal/bpf pins.
func TestVetClean(t *testing.T) {
	var b strings.Builder
	if code := vet(&b); code != 0 {
		t.Fatalf("vet exit code %d, want 0:\n%s", code, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"vet: 192 programs (4 subsystems x 16 resource masks x 3 markers), 60928 insns\n",
		"vet: 0 verify errors, 0 lint findings\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("vet output missing %q:\n%s", want, out)
		}
	}
}
