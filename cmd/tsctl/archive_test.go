package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/tscout"
)

// writeTestArchive seals a small archive to a temp file and returns its path.
func writeTestArchive(t *testing.T) string {
	t.Helper()
	pts := make([]tscout.TrainingPoint, 50)
	for i := range pts {
		pts[i] = tscout.TrainingPoint{
			OU: tscout.OUID(1 + i%2), OUName: []string{"scan", "sort"}[i%2],
			Subsystem: tscout.SubsystemID(i % 2), PID: 100 + i,
			Features:     []float64{float64(i), 0.5 * float64(i)},
			FeatureNames: []string{"rows", "width"},
			Metrics:      tscout.Metrics{ElapsedNS: int64(1000 + i), Cycles: uint64(i) * 3},
		}
	}
	var buf bytes.Buffer
	w := archive.NewWriterSize(&buf, 16)
	if err := w.WriteBatch(pts); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "train.tsg")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestArchiveCmdInspect(t *testing.T) {
	path := writeTestArchive(t)
	var out, errOut bytes.Buffer
	if code := archiveCmd(&out, &errOut, []string{"inspect", path}); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{"rows:     50", "scan", "sort", "rows by subsystem"} {
		if !strings.Contains(text, want) {
			t.Errorf("inspect output missing %q:\n%s", want, text)
		}
	}

	out.Reset()
	if code := archiveCmd(&out, &errOut, []string{"inspect", "-json", path}); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var st archive.Stats
	if err := json.Unmarshal(out.Bytes(), &st); err != nil {
		t.Fatalf("inspect -json is not JSON: %v\n%s", err, out.String())
	}
	if st.Rows != 50 || st.RowsByOU["scan"] != 25 {
		t.Fatalf("inspect -json stats: %+v", st)
	}
}

func TestArchiveCmdExportCSV(t *testing.T) {
	path := writeTestArchive(t)
	var out, errOut bytes.Buffer
	if code := archiveCmd(&out, &errOut, []string{"export", "-csv", path}); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 51 { // header + 50 rows
		t.Fatalf("CSV export has %d lines, want 51", len(lines))
	}
	const header = "ou,ou_name,subsystem,pid,elapsed_ns,cpu_cycles,instructions,cache_refs," +
		"cache_misses,ref_cycles,disk_read_bytes,disk_write_bytes,net_recv_bytes,net_send_bytes," +
		"alloc_bytes,features"
	if lines[0] != header {
		t.Fatalf("CSV header: %q, want %q", lines[0], header)
	}

	// export without -csv is a usage error.
	if code := archiveCmd(&out, &errOut, []string{"export", path}); code != 2 {
		t.Fatalf("export without -csv: exit %d, want 2", code)
	}
}

func TestArchiveCmdVerify(t *testing.T) {
	path := writeTestArchive(t)
	var out, errOut bytes.Buffer
	if code := archiveCmd(&out, &errOut, []string{"verify", path}); code != 0 {
		t.Fatalf("clean archive: exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("verify output: %q", out.String())
	}

	// Flip one payload byte: verify must fail with exit 1, in both text
	// and JSON modes.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	bad := filepath.Join(t.TempDir(), "bad.tsg")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := archiveCmd(&out, &errOut, []string{"verify", bad}); code != 1 {
		t.Fatalf("corrupt archive: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "CORRUPT") {
		t.Fatalf("verify output: %q", out.String())
	}
	out.Reset()
	if code := archiveCmd(&out, &errOut, []string{"verify", "-json", bad}); code != 1 {
		t.Fatalf("corrupt archive -json: exit %d, want 1", code)
	}
	var res struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("verify -json is not JSON: %v\n%s", err, out.String())
	}
	if res.OK || res.Error == "" {
		t.Fatalf("verify -json result: %+v", res)
	}
}

func TestArchiveCmdUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{},
		{"inspect"},
		{"frobnicate", "x"},
		{"inspect", "a", "b"},
	} {
		if code := archiveCmd(&out, &errOut, args); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
	// Missing file is a runtime failure, not a usage error.
	if code := archiveCmd(&out, &errOut, []string{"inspect", "/no/such/file"}); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	// A flag the verb does not take is a usage error, not ignored.
	path := writeTestArchive(t)
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"export", "-json", "-csv", path}, "-json applies to inspect and verify"},
		{[]string{"inspect", "-csv", path}, "-csv applies to export"},
		{[]string{"verify", "-csv", path}, "-csv applies to export"},
	} {
		errOut.Reset()
		if code := archiveCmd(&out, &errOut, c.args); code != 2 || !strings.Contains(errOut.String(), c.msg) {
			t.Errorf("args %v: exit %d, stderr %q; want 2 and %q", c.args, code, errOut.String(), c.msg)
		}
	}
}
