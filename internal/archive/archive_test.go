package archive

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tscout/internal/catalog"
	"tscout/internal/storage"
	"tscout/internal/tscout"
)

// makePoints builds a varied corpus: several OUs across subsystems,
// integral and fractional features, hostile float values, negative
// metrics, and a point with more features than names.
func makePoints(n int) []tscout.TrainingPoint {
	pts := make([]tscout.TrainingPoint, n)
	for i := range pts {
		switch i % 3 {
		case 0:
			pts[i] = tscout.TrainingPoint{
				OU: 1, OUName: "scan", Subsystem: 0, PID: 100 + i,
				Features:     []float64{float64(i), float64(i % 7)},
				FeatureNames: []string{"num_rows", "cols"},
			}
		case 1:
			pts[i] = tscout.TrainingPoint{
				OU: 2, OUName: "sort", Subsystem: 0, PID: 200 + i%5,
				Features:     []float64{float64(i) * 0.5, math.Inf(1), -0.0},
				FeatureNames: []string{"card"},
			}
		default:
			pts[i] = tscout.TrainingPoint{
				OU: 9, OUName: "wal_write", Subsystem: 1, PID: -1,
			}
		}
		pts[i].Metrics = tscout.Metrics{
			ElapsedNS:      int64(1000 + i*13),
			Cycles:         uint64(i) * 97,
			Instructions:   uint64(i) * 31,
			CacheRefs:      uint64(i % 11),
			CacheMisses:    uint64(i % 5),
			RefCycles:      math.MaxUint64 - uint64(i), // exercises wraparound deltas
			DiskReadBytes:  int64(i * 4096),
			DiskWriteBytes: -int64(i), // negative to exercise zigzag
			NetRecvBytes:   0,
			NetSendBytes:   int64(i % 2),
			AllocBytes:     int64(i) << 20,
		}
	}
	return pts
}

// writeArchive seals pts through a Writer with the given segment size.
func writeArchive(t *testing.T, pts []tscout.TrainingPoint, segRows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterSize(&buf, segRows)
	// Deliver in uneven batches to exercise pending-buffer management.
	for off := 0; off < len(pts); {
		n := 1 + (off*7)%13
		if off+n > len(pts) {
			n = len(pts) - off
		}
		if err := w.WriteBatch(pts[off : off+n]); err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
		off += n
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := w.Rows(); got != int64(len(pts)) {
		t.Fatalf("Rows() = %d, want %d", got, len(pts))
	}
	return buf.Bytes()
}

func samePoint(a, b tscout.TrainingPoint) bool {
	if a.OU != b.OU || a.OUName != b.OUName || a.Subsystem != b.Subsystem ||
		a.PID != b.PID || a.Metrics != b.Metrics {
		return false
	}
	if len(a.Features) != len(b.Features) || len(a.FeatureNames) != len(b.FeatureNames) {
		return false
	}
	for i := range a.Features {
		// Bit-exact: distinguishes -0 from 0 and matches NaN to NaN.
		if math.Float64bits(a.Features[i]) != math.Float64bits(b.Features[i]) {
			return false
		}
	}
	for i := range a.FeatureNames {
		if a.FeatureNames[i] != b.FeatureNames[i] {
			return false
		}
	}
	return true
}

func TestRoundTripBitExact(t *testing.T) {
	for _, segRows := range []int{1, 7, 64, 100000} {
		t.Run(fmt.Sprintf("segRows=%d", segRows), func(t *testing.T) {
			pts := makePoints(257)
			// One NaN with a payload, to prove raw encoding preserves bits.
			pts[10].Features = []float64{math.Float64frombits(0x7ff8000000001234)}
			pts[10].FeatureNames = []string{"x"}

			data := writeArchive(t, pts, segRows)
			r, err := NewReader(data)
			if err != nil {
				t.Fatalf("NewReader: %v", err)
			}
			if r.NumRows() != int64(len(pts)) {
				t.Fatalf("NumRows = %d, want %d", r.NumRows(), len(pts))
			}
			got, err := r.Points()
			if err != nil {
				t.Fatalf("Points: %v", err)
			}
			if len(got) != len(pts) {
				t.Fatalf("decoded %d points, want %d", len(got), len(pts))
			}
			for i := range pts {
				if !samePoint(pts[i], got[i]) {
					t.Fatalf("point %d mismatch:\n want %+v\n got  %+v", i, pts[i], got[i])
				}
			}
			if err := r.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		})
	}
}

func TestReaderStats(t *testing.T) {
	pts := makePoints(90)
	r, err := NewReader(writeArchive(t, pts, 32))
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Rows != 90 || st.Segments != 3 {
		t.Fatalf("stats = %+v, want 90 rows in 3 segments", st)
	}
	if st.RowsByOU["scan"] != 30 || st.RowsByOU["sort"] != 30 || st.RowsByOU["wal_write"] != 30 {
		t.Fatalf("rows by OU = %v", st.RowsByOU)
	}
	if st.RowsBySub[tscout.SubsystemID(0).String()] != 60 {
		t.Fatalf("rows by subsystem = %v", st.RowsBySub)
	}
	if st.Bytes != int64(len(writeArchive(t, pts, 32))) {
		t.Fatalf("stats bytes mismatch")
	}
}

func TestCorruptionDetected(t *testing.T) {
	data := writeArchive(t, makePoints(50), 16)
	// Flipping any byte must fail parse (checksum) — sample a spread.
	for off := 0; off < len(data); off += 37 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if _, err := NewReader(mut); err == nil {
			t.Fatalf("flip at %d: corruption not detected", off)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: error %v is not ErrCorrupt", off, err)
		}
	}
	// Truncations must fail too.
	for _, cut := range []int{1, 8, len(data) / 2, len(data) - 1} {
		if _, err := NewReader(data[:cut]); err == nil {
			t.Fatalf("truncate to %d: corruption not detected", cut)
		}
	}
}

func TestEmptyArchive(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 0 || len(r.segs) != 0 {
		t.Fatalf("empty archive: rows=%d segments=%d", r.NumRows(), len(r.segs))
	}
	if pts, err := r.Points(); err != nil || len(pts) != 0 {
		t.Fatalf("Points on empty archive: %v, %d points", err, len(pts))
	}
}

func TestStickyWriteError(t *testing.T) {
	w := NewWriterSize(failWriter{}, 4)
	pts := makePoints(10)
	var firstErr error
	for i := range pts {
		if err := w.WriteBatch(pts[i : i+1]); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("no error surfaced from failing writer")
	}
	if err := w.WriteBatch(pts[:1]); err == nil {
		t.Fatal("error not sticky on WriteBatch")
	}
	if err := w.Flush(); err == nil {
		t.Fatal("error not sticky on Flush")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk on fire") }

func TestZoneMapSkipping(t *testing.T) {
	pts := makePoints(300)
	r, err := NewReader(writeArchive(t, pts, 50))
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(r)

	// ou_name = 'scan' prunes every sort/wal block.
	var rows int
	stats := tbl.Scan(
		[]int{ColOUName, colMetric0},
		[]catalog.VirtualPred{{Col: ColOUName, Op: catalog.VirtualEq, Val: storage.NewString("scan")}},
		func(row storage.Row) bool {
			if row[ColOUName].Str() != "scan" {
				t.Fatalf("pushdown leaked row %v", row)
			}
			rows++
			return true
		})
	if rows != 100 || stats.Rows != 100 {
		t.Fatalf("scan rows = %d (stats %d), want 100", rows, stats.Rows)
	}
	if stats.BlocksSkipped == 0 {
		t.Fatalf("no blocks skipped: %+v", stats)
	}

	// Impossible metric predicate prunes everything without decode.
	stats = tbl.Scan(nil,
		[]catalog.VirtualPred{{Col: colMetric0, Op: catalog.VirtualLt, Val: storage.NewInt(0)}},
		func(storage.Row) bool { t.Fatal("row produced"); return false })
	if stats.BlocksRead != 0 || stats.Rows != 0 {
		t.Fatalf("impossible predicate read blocks: %+v", stats)
	}
}

func TestScanProjectionNulls(t *testing.T) {
	pts := makePoints(9)
	r, err := NewReader(writeArchive(t, pts, 100))
	if err != nil {
		t.Fatal(err)
	}
	NewTable(r).Scan([]int{ColPID}, nil, func(row storage.Row) bool {
		if row[ColPID].Kind() != storage.KindInt {
			t.Fatalf("projected pid is %v", row[ColPID].Kind())
		}
		if !row[ColOUName].IsNull() || !row[ColFeatures].IsNull() {
			t.Fatalf("unprojected columns not NULL: %v", row)
		}
		return true
	})
}

// TestExportCSVMatchesGolden pins ExportCSV's bytes for the makePoints(120)
// archive: the header, every metric's decimal form (the five unsigned
// counters as unsigned), CSV quoting and the features cell. The golden file
// is the output of the retired streaming CSV sink for the same points, so
// export stays byte-identical to what that sink wrote.
func TestExportCSVMatchesGolden(t *testing.T) {
	pts := makePoints(120)
	r, err := NewReader(writeArchive(t, pts, 33))
	if err != nil {
		t.Fatal(err)
	}
	var exported bytes.Buffer
	n, err := ExportCSV(r, &exported)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(pts)) {
		t.Fatalf("export wrote %d rows, want %d", n, len(pts))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "export120.golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exported.Bytes(), want) {
		t.Fatalf("export differs from testdata/export120.golden.csv: %d bytes, want %d",
			exported.Len(), len(want))
	}
}

// TestColumnarDensityVsCSV pins the acceptance claim that the segment
// format is at least 2x denser than the CSV export of the same points.
func TestColumnarDensityVsCSV(t *testing.T) {
	pts := makePoints(4000)
	columnar := writeArchive(t, pts, DefaultSegmentRows)
	r, err := NewReader(columnar)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if _, err := ExportCSV(r, &csvBuf); err != nil {
		t.Fatal(err)
	}
	if 2*len(columnar) > csvBuf.Len() {
		t.Fatalf("columnar %d bytes vs CSV %d bytes: less than 2x denser (%.2fx)",
			len(columnar), csvBuf.Len(), float64(csvBuf.Len())/float64(len(columnar)))
	}
	t.Logf("columnar %.1f bytes/point, CSV %.1f bytes/point (%.1fx)",
		float64(len(columnar))/float64(len(pts)), float64(csvBuf.Len())/float64(len(pts)),
		float64(csvBuf.Len())/float64(len(columnar)))
}

// TestFeaturesCellMatchesCSV cross-checks the virtual table's features
// column against the CSV encoder for the same rows.
func TestFeaturesCellMatchesCSV(t *testing.T) {
	pts := makePoints(30)
	r, err := NewReader(writeArchive(t, pts, 100))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	NewTable(r).Scan([]int{ColFeatures}, nil, func(row storage.Row) bool {
		got[row[ColFeatures].Str()]++
		return true
	})
	want := map[string]int{}
	for i := range pts {
		want[string(appendFeatureCell(nil, pts[i].FeatureNames, pts[i].Features))]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("features cells differ:\n got  %v\n want %v", got, want)
	}
}
