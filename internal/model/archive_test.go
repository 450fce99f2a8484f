package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"strings"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/tscout"
)

// FromTrainingPoints converts TScout output into model points, targeting
// elapsed time, with hwContext appended to every point's features: the
// row-at-a-time oracle FromArchive must agree with.
func FromTrainingPoints(pts []tscout.TrainingPoint, hwContext []float64) []Point {
	out := make([]Point, 0, len(pts))
	for _, tp := range pts {
		out = append(out, Point{
			OU:       tp.OU,
			Sub:      tp.Subsystem,
			Features: append(append([]float64(nil), tp.Features...), hwContext...),
			TargetUS: float64(tp.Metrics.ElapsedNS) / 1000.0,
			Template: templateKeyOf(tp.OU, tp.Features),
		})
	}
	return out
}

// TestFromArchiveMatchesFromTrainingPoints is the column-path equivalence
// check: reading model points straight from archive columns must produce
// exactly what materializing TrainingPoints and converting them does.
func TestFromArchiveMatchesFromTrainingPoints(t *testing.T) {
	var pts []tscout.TrainingPoint
	for i := 0; i < 333; i++ {
		tp := tscout.TrainingPoint{
			OU:        tscout.OUID(1 + i%4),
			OUName:    []string{"scan", "filter", "join", "sort"}[i%4],
			Subsystem: tscout.SubsystemID(i % 2),
			PID:       1000 + i%3,
			Metrics:   tscout.Metrics{ElapsedNS: int64(i)*977 + 13, Cycles: uint64(i) * 3},
		}
		if i%4 != 3 {
			tp.Features = []float64{float64(i % 50), 0.25 * float64(i)}
			tp.FeatureNames = []string{"rows", "width"}
		}
		pts = append(pts, tp)
	}

	var buf bytes.Buffer
	w := archive.NewWriterSize(&buf, 41)
	if err := w.WriteBatch(pts); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	hw := []float64{2.1}
	got, err := FromArchive(r, hw)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePoints(t, got, FromTrainingPoints(pts, hw))
}

// requireSamePoints fails unless got equals want element for element: same
// order, OU, subsystem and template, and the same float bits.
func requireSamePoints(t *testing.T, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("FromArchive returned %d points, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.OU != b.OU || a.Sub != b.Sub || a.Template != b.Template ||
			math.Float64bits(a.TargetUS) != math.Float64bits(b.TargetUS) || len(a.Features) != len(b.Features) {
			t.Fatalf("point %d differs:\n want %+v\n got  %+v", i, a, b)
		}
		for f := range a.Features {
			if math.Float64bits(a.Features[f]) != math.Float64bits(b.Features[f]) {
				t.Fatalf("point %d feature %d: %v != %v", i, f, a.Features[f], b.Features[f])
			}
		}
	}
}

// sealedSegments writes pts through a Writer sealing segRows-row segments
// and returns each sealed segment's wire bytes, in seal order.
func sealedSegments(t testing.TB, pts []tscout.TrainingPoint, segRows int) [][]byte {
	var segs [][]byte
	w := archive.NewWriterSize(io.Discard, segRows)
	w.SetOnSeal(func(seg []byte) { segs = append(segs, bytes.Clone(seg)) })
	if err := w.WriteBatch(pts); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return segs
}

// readPathPoints builds n points over seven OUs, each with an integral and
// a fractional feature, so every block decodes both feature encodings.
func readPathPoints(n int) []tscout.TrainingPoint {
	pts := make([]tscout.TrainingPoint, n)
	for i := range pts {
		pts[i] = tscout.TrainingPoint{
			OU:           tscout.OUID(1 + i%7),
			OUName:       "ou",
			Subsystem:    tscout.SubsystemID(i % 7 % 2),
			PID:          100 + i%5,
			Features:     []float64{float64(i % 40), 0.25 * float64(i)},
			FeatureNames: []string{"rows", "width"},
			Metrics:      tscout.Metrics{ElapsedNS: int64(i)*31 + 7},
		}
	}
	return pts
}

// FuzzFromArchive is FromArchive's differential oracle: for any bytes
// NewReader accepts, FromArchive does not panic, and on an archive that
// passes Verify it returns exactly FromTrainingPoints(r.Points(), hw).
func FuzzFromArchive(f *testing.F) {
	// Every sixth row keeps all three arities in a seed small enough for
	// the fuzzer's minimizer.
	var pts []tscout.TrainingPoint
	for i, tp := range mixedArityPoints() {
		if i%6 == 0 {
			pts = append(pts, tp)
		}
	}
	for _, segRows := range []int{1, 7, 64} {
		f.Add(bytes.Join(sealedSegments(f, pts, segRows), nil))
	}
	segs := sealedSegments(f, pts, 10)
	f.Add(bytes.Join(segs[1:3], nil))                          // a mid-archive tail, the autopilot's read
	f.Add(append(append([]byte(nil), segs[0]...), segs[2]...)) // a gap: NewReader rejects it

	hw := []float64{2.1}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := archive.NewReader(data)
		if err != nil {
			return
		}
		got, err := FromArchive(r, hw)
		if r.Verify() != nil {
			return
		}
		if err != nil {
			t.Fatalf("Verify passed but FromArchive failed: %v", err)
		}
		tps, err := r.Points()
		if err != nil {
			t.Fatalf("Verify passed but Points failed: %v", err)
		}
		requireSamePoints(t, got, FromTrainingPoints(tps, hw))
	})
}

// TestFromArchiveRejectsAGap: segments 0 and 2 of one writer do not make an
// archive, and a tail of consecutive seals reads as its own rows.
func TestFromArchiveRejectsAGap(t *testing.T) {
	pts := mixedArityPoints()
	segs := sealedSegments(t, pts, 50)
	if _, err := archive.NewReader(append(append([]byte(nil), segs[0]...), segs[2]...)); !errors.Is(err, archive.ErrCorrupt) {
		t.Fatalf("segments 0 and 2: NewReader error %v, want ErrCorrupt", err)
	}
	r, err := archive.NewReader(bytes.Join(segs[1:3], nil))
	if err != nil {
		t.Fatal(err)
	}
	if r.FirstRow() != 50 {
		t.Fatalf("tail FirstRow = %d, want 50", r.FirstRow())
	}
	hw := []float64{2.1}
	got, err := FromArchive(r, hw)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePoints(t, got, FromTrainingPoints(pts[50:150], hw))
}

// TestFromArchiveRejectsMisplacedRows: a row index FromArchive cannot
// place — one seen before, or one outside the archive — is ErrCorrupt. The
// archive interleaves two OUs, so block 1's row-index column is the
// uvarint run 01 02 02 ...; rewriting its first byte (and the segment's
// FNV-64a trailer) moves the block's rows without touching any footer.
func TestFromArchiveRejectsMisplacedRows(t *testing.T) {
	pts := make([]tscout.TrainingPoint, 18)
	for i := range pts {
		pts[i] = tscout.TrainingPoint{
			OU: tscout.OUID(1 + i%2), OUName: "ou", PID: 7,
			Metrics: tscout.Metrics{ElapsedNS: int64(i) * 1000},
		}
	}
	data := bytes.Join(sealedSegments(t, pts, len(pts)), nil)
	run := []byte{1, 2, 2, 2, 2, 2, 2, 2, 2}
	if bytes.Count(data, run) != 1 {
		t.Fatalf("block 1's row-index column %x is not unique in the segment", run)
	}
	at := bytes.Index(data, run)
	for _, c := range []struct {
		first byte
		msg   string
	}{
		{0, "duplicate row index 0"},   // block 0's rows again
		{100, "row index 100 outside"}, // past the archive's 18 rows
	} {
		mut := append([]byte(nil), data...)
		mut[at] = c.first
		h := fnv.New64a()
		h.Write(mut[:len(mut)-8])
		binary.LittleEndian.PutUint64(mut[len(mut)-8:], h.Sum64())
		r, err := archive.NewReader(mut)
		if err != nil {
			t.Fatalf("first row %d: NewReader: %v", c.first, err)
		}
		_, err = FromArchive(r, nil)
		if !errors.Is(err, archive.ErrCorrupt) || !strings.Contains(err.Error(), c.msg) {
			t.Fatalf("first row %d: FromArchive error %v, want ErrCorrupt saying %q", c.first, err, c.msg)
		}
	}
}

// TestFromArchiveAllocations pins FromArchive's allocations on a 20 000-row,
// 70-block archive — the result, its placement bitset, one feature arena
// for the call, and the column buffers each Blocks call makes once — and
// holds them flat as blocks grow: the same 70 blocks at four times the rows
// allocate no more.
func TestFromArchiveAllocations(t *testing.T) {
	allocs := func(rows int) float64 {
		segs := sealedSegments(t, readPathPoints(rows), rows/10)
		r, err := archive.NewReader(bytes.Join(segs, nil))
		if err != nil {
			t.Fatal(err)
		}
		var blocks int
		r.Blocks(func(*archive.Block) bool { blocks++; return true })
		if blocks != 70 {
			t.Fatalf("%d rows: %d blocks, want 70", rows, blocks)
		}
		hw := []float64{2.1}
		return testing.AllocsPerRun(3, func() {
			if _, err := FromArchive(r, hw); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Measured 13, also under -race; one more allocation per block would
	// read 83. An arena per block made 91, and a sort and a feature slice
	// per row 20 635.
	const ceiling = 30
	small, large := allocs(20_000), allocs(80_000)
	t.Logf("FromArchive allocations: %.0f at 20 000 rows, %.0f at 80 000", small, large)
	if small > ceiling {
		t.Fatalf("FromArchive allocates %.0f times on 20 000 rows in 70 blocks, ceiling %d", small, ceiling)
	}
	if large > small {
		t.Fatalf("FromArchive allocations grow with rows per block: %.0f at 20 000 rows, %.0f at 80 000", small, large)
	}
}

// TestTemplateKeyOfIsFNV64a pins the inlined hash to hash/fnv's FNV-64a
// over the OU's and each quantized feature's eight little-endian bytes,
// so template ids (and model.err_by_template_us with them) cannot drift.
func TestTemplateKeyOfIsFNV64a(t *testing.T) {
	oracle := func(ou tscout.OUID, features []float64) uint64 {
		h := fnv.New64a()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(ou))
		h.Write(buf[:])
		for _, f := range features {
			binary.LittleEndian.PutUint64(buf[:], uint64(quantize(f)))
			h.Write(buf[:])
		}
		return h.Sum64()
	}
	cases := []struct {
		ou       tscout.OUID
		features []float64
	}{
		{0, nil},
		{1, []float64{}},
		{7, []float64{3}},
		{7, []float64{3, 0}},
		{7, []float64{-1, 0.5, 4, 15.9, 16}},
		{255, []float64{1e9, math.Inf(1), math.NaN()}},
		{65535, []float64{1 << 40, 2, 3, 4, 5, 6, 7, 8}},
	}
	for _, c := range cases {
		if got, want := templateKeyOf(c.ou, c.features), oracle(c.ou, c.features); got != want {
			t.Errorf("templateKeyOf(%d, %v) = %#x, FNV-64a %#x", c.ou, c.features, got, want)
		}
	}
	if templateKeyOf(7, []float64{3}) == templateKeyOf(7, []float64{3, 0}) {
		t.Fatal("[x] and [x, 0] share a template")
	}
}
