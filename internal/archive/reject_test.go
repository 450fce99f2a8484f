package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
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
// makes once, at the largest block's size — and holds them flat as blocks
// grow: the same 70 blocks at four times the rows allocate no more.
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
	// Measured 21, also under -race; one more allocation per block would
	// read 91. A map of seen rows and fresh columns per block made 1 395.
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

// TestNewReaderAllocations holds NewReader to a fixed number of
// allocations per segment: parsing k segments costs at most a·k + b
// objects, and the same k segments with fifteen times the blocks and
// dictionary entries cost exactly as many. A per-entry dictionary string
// or a per-block feature slice would make the wide archive cost more.
func TestNewReaderAllocations(t *testing.T) {
	// archive seals k segments of 60 rows over ous OUs; each OU has its
	// own name and two feature names of its own, so a segment holds ous
	// blocks and 3·ous dictionary entries.
	archive := func(k, ous int) []byte {
		pts := make([]tscout.TrainingPoint, 60*k)
		for i := range pts {
			ou := i % ous
			pts[i] = tscout.TrainingPoint{
				OU: tscout.OUID(1 + ou), OUName: fmt.Sprintf("ou%d", ou), Subsystem: tscout.SubsystemID(ou % 2),
				PID:          100 + i%5,
				Features:     []float64{float64(i % 40), 0.25 * float64(i)},
				FeatureNames: []string{fmt.Sprintf("rows%d", ou), fmt.Sprintf("width%d", ou)},
				Metrics:      tscout.Metrics{ElapsedNS: int64(i)*31 + 7},
			}
		}
		return writeArchive(t, pts, 60)
	}
	allocs := func(k, ous int) float64 {
		data := archive(k, ous)
		r, err := NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.Segments != k || st.Blocks != k*ous {
			t.Fatalf("%d segments and %d blocks, want %d and %d", st.Segments, st.Blocks, k, k*ous)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := NewReader(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Measured 35 at 6 segments and 86 at 16, the same under -race: 5 a
	// segment (the dictionary string and its entries, the blocks, and the
	// two feature slabs) and the Reader's list of segments. A string per
	// dictionary entry would add 6 a segment narrow and 90 wide.
	const perSeg, fixed = 6, 10
	for _, k := range []int{6, 16} {
		narrow, wide := allocs(k, 2), allocs(k, 30)
		t.Logf("NewReader allocations over %d segments: %.0f at 2 blocks a segment, %.0f at 30", k, narrow, wide)
		if limit := float64(perSeg*k + fixed); narrow > limit || wide > limit {
			t.Errorf("NewReader allocates %.0f and %.0f times over %d segments, want <= %.0f", narrow, wide, k, limit)
		}
		if wide != narrow {
			t.Errorf("NewReader allocations grow with blocks and dictionary entries: %.0f at 2 blocks a segment, %.0f at 30", narrow, wide)
		}
	}
}

// TestNewReaderHostileFooterBytes: a footer that claims the largest block
// count its bytes allow (minBlockFooterBytes each) gets its blocks
// presized, and that presize stays within a fixed multiple of the input, as
// NewReader's doc promises for every length a footer claims; a larger
// claim, up to one block a byte, is corrupt before any presize.
func TestNewReaderHostileFooterBytes(t *testing.T) {
	const blocksRegion = 1 << 16
	maxBlocks := blocksRegion / minBlockFooterBytes
	// segment claims nBlocks blocks over blocksRegion zero bytes: the first
	// block claims 0 rows, which is corrupt, so a parse that gets past the
	// block count stops right after the presize.
	segment := func(nBlocks int) []byte {
		footer := binary.AppendUvarint(nil, 1) // one dictionary entry, "x"
		footer = binary.AppendUvarint(footer, 1)
		footer = append(footer, 'x')
		footer = binary.AppendUvarint(footer, 1) // total rows
		footer = binary.AppendUvarint(footer, uint64(nBlocks))
		footer = append(footer, make([]byte, blocksRegion)...)
		return appendSegment(nil, []byte{0}, footer)
	}
	// Measured 10 at maxBlocks (656 112 bytes): a blockMeta is about ten
	// times minBlockFooterBytes, and the dictionary and the error add a
	// few hundred bytes.
	const perInputByte = 12
	for _, c := range []struct {
		blocks int
		msg    string
	}{
		{maxBlocks, "block 0: row count 0 out of range"},
		{maxBlocks + 1, fmt.Sprintf("block count %d exceeds footer size", maxBlocks+1)},
		{blocksRegion, fmt.Sprintf("block count %d exceeds footer size", blocksRegion)},
	} {
		data := segment(c.blocks)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewReader(data)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d blocks claimed: NewReader allocates %d bytes over a %d-byte segment", c.blocks, got, len(data))
		if got > perInputByte*uint64(len(data)) {
			t.Errorf("%d blocks claimed: NewReader allocates %d bytes for a %d-byte segment, want <= %d",
				c.blocks, got, len(data), perInputByte*len(data))
		}
		wantCorrupt(t, err, c.msg)
	}
}
