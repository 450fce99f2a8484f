package workload

import (
	"bytes"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/tscout"
)

// testArchive is a test server's training store: a segment writer over
// memory, handed to the server as dbms.Config.Sink and read back after the
// run — the only place the run's training points exist.
type testArchive struct {
	buf bytes.Buffer
	w   *archive.Writer
}

// newTestArchive seals rowsPerSegment-row segments (0 = the default).
func newTestArchive(rowsPerSegment int) *testArchive {
	a := &testArchive{}
	a.w = archive.NewWriterSize(&a.buf, rowsPerSegment)
	return a
}

// points flushes the writer and decodes the archive in sink order.
func (a *testArchive) points(t *testing.T) []tscout.TrainingPoint {
	t.Helper()
	if err := a.w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(a.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := r.Points()
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestSegmentSinkGoldenFingerprint re-runs the canonical single-CPU golden
// workload sealing a segment every 64 rows — 174 segments instead of
// the default writer's 3 — and fingerprints the points read back from the
// segments. The hash must equal the recorded golden value: the archive path
// neither perturbs the run (sink delivery happens outside the simulated
// clock) nor loses or reorders a single point through encode → seal →
// decode, wherever the segment boundaries fall.
func TestSegmentSinkGoldenFingerprint(t *testing.T) {
	res, pts := goldenRun(t, 64)
	if len(pts) != goldenSingleCPUPoints {
		t.Fatalf("segment archive holds %d points, want %d", len(pts), goldenSingleCPUPoints)
	}
	if got := goldenFingerprint(res, pts); got != goldenSingleCPUHash {
		t.Fatalf("segment-sink golden fingerprint = %#x, want %#x", got, goldenSingleCPUHash)
	}
}
