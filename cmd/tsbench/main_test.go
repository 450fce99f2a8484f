package main

import (
	"bytes"
	"strings"
	"testing"

	"tscout/internal/experiment"
)

// TestRun checks that an unknown figure is an error and prints nothing.
// What each known figure prints is held by its shape test in
// internal/experiment, against its block in EXPERIMENTS.md.
func TestRun(t *testing.T) {
	var got bytes.Buffer
	err := experiment.Render(&got, "fig3", experiment.Quick)
	if err == nil || !strings.Contains(err.Error(), `unknown figure "fig3"`) {
		t.Fatalf("Render(fig3) error = %v, want unknown figure", err)
	}
	if got.Len() != 0 {
		t.Fatalf("unknown figure wrote %q", got.Bytes())
	}
}
