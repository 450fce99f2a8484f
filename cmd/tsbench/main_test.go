package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"tscout/internal/experiment"
)

// TestRun is the standing witness for "tsbench stdout is byte-identical":
// fig8 (three short YCSB phases on one server) must reproduce the
// checked-in output at quick scale. A change that moves it on purpose
// re-records testdata/fig8.golden with `tsbench fig8`. An unknown figure
// is an error and prints nothing.
func TestRun(t *testing.T) {
	want, err := os.ReadFile("testdata/fig8.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, "fig8", experiment.Quick); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("fig8 stdout moved:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}

	got.Reset()
	err = run(&got, "fig3", experiment.Quick)
	if err == nil || !strings.Contains(err.Error(), `unknown figure "fig3"`) {
		t.Fatalf("run(fig3) error = %v, want unknown figure", err)
	}
	if got.Len() != 0 {
		t.Fatalf("unknown figure wrote %q", got.Bytes())
	}
}
