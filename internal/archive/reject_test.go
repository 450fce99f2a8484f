package archive

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"tscout/internal/tscout"
)

// segmentsOf splits an archive into its segments' wire bytes.
func segmentsOf(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var segs [][]byte
	for off := 0; off < len(data); {
		_, n, err := parseSegment(data[off:])
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, data[off:off+n])
		off += n
	}
	return segs
}

// rewriteSegment returns a copy of data whose segment k has been parsed,
// edited and sealed again: edit may change footer fields through
// seg.blocks and column bytes through columnOf, which aliases seg.payload.
// The footer is re-encoded and the FNV-64a trailer recomputed, so the
// edit reaches the checks past the checksum.
func rewriteSegment(t *testing.T, data []byte, k int, edit func(seg *segmentData)) []byte {
	t.Helper()
	var out []byte
	for i, raw := range segmentsOf(t, append([]byte(nil), data...)) {
		if i != k {
			out = append(out, raw...)
			continue
		}
		seg, _, err := parseSegment(raw)
		if err != nil {
			t.Fatal(err)
		}
		edit(&seg)
		out = appendSegment(out, seg.payload, appendFooter(nil, seg.dict, int(seg.rows), seg.blocks))
	}
	return out
}

// columnOf returns column c of block bi, aliasing seg.payload.
func columnOf(t *testing.T, seg *segmentData, bi, c int) []byte {
	t.Helper()
	var b Block
	b.reset(seg, &seg.blocks[bi])
	if err := b.parseCols(); err != nil {
		t.Fatal(err)
	}
	return b.cols[c]
}

// threeOUArchive is three 30-row segments of three OUs whose blocks
// interleave: block b of a segment holds every third row from its b-th,
// so each row-index delta after the first is 3.
func threeOUArchive() []byte {
	var buf bytes.Buffer
	w := NewWriterSize(&buf, 30)
	_ = w.WriteBatch(sealTestPoints(90))
	_ = w.Flush()
	return buf.Bytes()
}

func wantCorrupt(t *testing.T, err error, msg string) {
	t.Helper()
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), msg) {
		t.Fatalf("error %v, want ErrCorrupt saying %q", err, msg)
	}
}

// TestNewReaderRejectsNonDenseRows: one case per branch of the footer-only
// dense row-index check.
func TestNewReaderRejectsNonDenseRows(t *testing.T) {
	data := threeOUArchive()
	segs := segmentsOf(t, data)
	if len(segs) != 3 {
		t.Fatalf("%d segments, want 3", len(segs))
	}
	cases := []struct {
		name string
		data []byte
		msg  string
	}{
		{"rewind", bytes.Join([][]byte{segs[0], segs[0]}, nil), "rewinds below 30"},
		{"gap", bytes.Join([][]byte{segs[0], segs[2]}, nil), "rows start at 60, leaving a gap after 30"},
		{"overrun", rewriteSegment(t, data, 1, func(seg *segmentData) {
			seg.blocks[2].rowHi = 60
		}), "row index 60 overruns"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewReader(c.data)
			wantCorrupt(t, err, c.msg)
		})
	}
	// The same rewrite with no edit is the archive it started from.
	if got := rewriteSegment(t, data, 1, func(*segmentData) {}); !bytes.Equal(got, data) {
		t.Fatal("rewriteSegment does not reproduce an unedited segment")
	}
}

// TestVerifyRejects: one case per Verify branch, each built by rewriting a
// footer field or a column byte of a sound archive.
func TestVerifyRejects(t *testing.T) {
	data := threeOUArchive()
	cases := []struct {
		name string
		edit func(t *testing.T, seg *segmentData)
		msg  string
	}{
		{"row outside its block's range", func(t *testing.T, seg *segmentData) {
			seg.blocks[0].rowHi -= 3
		}, "outside block range"},
		{"row indexes not increasing", func(t *testing.T, seg *segmentData) {
			// Block 0's row indexes are 30, +3, +3, ...; a zero delta
			// repeats one.
			col := columnOf(t, seg, 0, 0)
			if col[1] != 3 {
				t.Fatalf("second row-index delta is %d, want 3", col[1])
			}
			col[1] = 0
		}, "not strictly increasing"},
		{"duplicate row index across blocks", func(t *testing.T, seg *segmentData) {
			// Block 1 starts at row 31; start it at 30 and it repeats
			// block 0's rows 30, 33, ...
			col := columnOf(t, seg, 1, 0)
			if col[0] != 31 {
				t.Fatalf("block 1 starts at row %d, want 31", col[0])
			}
			col[0] = 30
			seg.blocks[1].rowLo, seg.blocks[1].rowHi = 30, seg.blocks[1].rowHi-1
		}, "duplicate row index 30"},
		{"pid outside its zone map", func(t *testing.T, seg *segmentData) {
			seg.blocks[2].pidMax--
		}, "pid 10 outside zone map"},
		{"metric outside its zone map", func(t *testing.T, seg *segmentData) {
			seg.blocks[2].maxVal[0]--
		}, "metric elapsed_ns value"},
		{"feature outside its zone map", func(t *testing.T, seg *segmentData) {
			seg.blocks[2].featMax[0]--
		}, "feature a value"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewReader(rewriteSegment(t, data, 1, func(seg *segmentData) { c.edit(t, seg) }))
			if err != nil {
				t.Fatalf("NewReader: %v", err)
			}
			wantCorrupt(t, r.Verify(), c.msg)
		})
	}

	// A repeated row index fails every pass that places rows, not only
	// Verify.
	r, err := NewReader(rewriteSegment(t, data, 1, func(seg *segmentData) { cases[2].edit(t, seg) }))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Points()
	wantCorrupt(t, err, "duplicate row index 30")

	// No bytes reach the distinct-row check: parseFooter holds each
	// segment's block rows to its total, and NumRows sums those totals.
	// It guards that sum, so this case breaks it in the reader.
	r, err = NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r.rows++
	wantCorrupt(t, r.Verify(), "90 distinct row indexes, footers claim 91 rows")
}

// TestReadPathAllocations pins Verify's allocations on a 20 000-row,
// 70-block archive — the row bitset, one Block and the column buffers it
// reuses across blocks — and holds them flat as blocks grow: the same 70
// blocks at four times the rows allocate no more.
func TestReadPathAllocations(t *testing.T) {
	allocs := func(rows int) float64 {
		pts := make([]tscout.TrainingPoint, rows)
		for i := range pts {
			pts[i] = tscout.TrainingPoint{
				OU: tscout.OUID(1 + i%7), OUName: "ou", Subsystem: tscout.SubsystemID(i % 7 % 2),
				PID:          100 + i%5,
				Features:     []float64{float64(i % 40), 0.25 * float64(i)},
				FeatureNames: []string{"rows", "width"},
				Metrics:      tscout.Metrics{ElapsedNS: int64(i)*31 + 7},
			}
		}
		r, err := NewReader(writeArchive(t, pts, rows/10))
		if err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.Blocks != 70 {
			t.Fatalf("%d rows: %d blocks, want 70", rows, st.Blocks)
		}
		return testing.AllocsPerRun(3, func() {
			if err := r.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Measured 29, and 46 under -race; one more allocation per block would
	// read 99. A map of seen rows and fresh columns per block made 1 395.
	const ceiling = 50
	small, large := allocs(20_000), allocs(80_000)
	t.Logf("Verify allocations: %.0f at 20 000 rows, %.0f at 80 000", small, large)
	if small > ceiling {
		t.Fatalf("Verify allocates %.0f times on 20 000 rows in 70 blocks, ceiling %d", small, ceiling)
	}
	if large > small {
		t.Fatalf("Verify allocations grow with rows per block: %.0f at 20 000 rows, %.0f at 80 000", small, large)
	}
}
