package archive

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"testing"

	"tscout/internal/tscout"
)

// TestSealAllocationsPerSegment is the encoder's allocation contract: its
// key table, block builders and block metadata are kept across segments,
// so once a block mix has been sealed, writing and sealing it again
// allocates a small constant that does not grow with the segment's block
// count.
func TestSealAllocationsPerSegment(t *testing.T) {
	const rows, perSeal = 4096, 1
	perBlocks := map[int]float64{}
	for _, blocks := range []int{3, 48} {
		pts := make([]tscout.TrainingPoint, rows)
		for i := range pts {
			ou := i % blocks
			pts[i] = tscout.TrainingPoint{
				OU: tscout.OUID(ou), OUName: fmt.Sprintf("ou%d", ou), PID: i % 7,
				Features:     []float64{float64(i), float64(i % 5)},
				FeatureNames: []string{"a", "b"},
				Metrics:      tscout.Metrics{ElapsedNS: int64(i)},
			}
		}
		w := NewWriterSize(io.Discard, rows)
		if err := w.WriteBatch(pts); err != nil {
			t.Fatal(err)
		}
		perBlocks[blocks] = testing.AllocsPerRun(10, func() {
			if err := w.WriteBatch(pts); err != nil { // one whole segment, sealed
				t.Fatal(err)
			}
		})
		if got := perBlocks[blocks]; got > perSeal {
			t.Errorf("sealing %d blocks allocates %.0f times a seal, want <= %d", blocks, got, perSeal)
		}
	}
	if perBlocks[48] != perBlocks[3] {
		t.Errorf("a seal allocates %.0f times at 3 blocks and %.0f at 48: the count grows with the blocks",
			perBlocks[3], perBlocks[48])
	}
	t.Logf("allocations a seal: %v (by block count)", perBlocks)
}

// TestEncoderKeyTableAcrossSeals round-trips segments sealed by one encoder
// whose block mix changes from seal to seal: keys that return after seals
// without them, runs and interleavings, and more distinct keys than
// maxBlockKeys, so the key table is dropped and rebuilt between seals.
func TestEncoderKeyTableAcrossSeals(t *testing.T) {
	pts := mixedPoints()
	const segRows = 500
	w := NewWriterSize(io.Discard, segRows)
	for lo := 0; lo < len(pts); lo += segRows {
		if err := w.WriteBatch(pts[lo:min(lo+segRows, len(pts))]); err != nil {
			t.Fatal(err)
		}
		if n := len(w.enc.blocks); n > maxBlockKeys+segRows {
			t.Fatalf("after the seal at row %d the key table holds %d keys, more than %d and one seal's", lo, n, maxBlockKeys)
		}
	}
	r, err := NewReader(writeArchive(t, pts, segRows))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("read %d points, want %d", len(got), len(pts))
	}
	for i := range pts {
		if !samePoint(got[i], pts[i]) {
			t.Fatalf("row %d: got %+v, want %+v", i, got[i], pts[i])
		}
	}
}

// mixedPoints is a block mix that changes from segment to segment: a small
// recurring set of keys broken by keys seen once, runs of one key, feature
// widths 0 to 3, and 6 × maxBlockKeys distinct-enough keys that a key table
// outgrows its bound.
func mixedPoints() []tscout.TrainingPoint {
	pts := make([]tscout.TrainingPoint, 6*maxBlockKeys)
	for i := range pts {
		ou := i % 5 // a small recurring mix ...
		if i%3 != 1 {
			ou = 100 + i // ... broken by keys seen once
		}
		if (i/200)%2 == 1 {
			ou = i / 50 // and by runs
		}
		pts[i] = tscout.TrainingPoint{
			OU: tscout.OUID(ou), OUName: fmt.Sprintf("ou%d", ou), PID: i,
			Features:     make([]float64, ou%4),
			FeatureNames: []string{"a", "b", "c"}[:ou%4],
			Metrics:      tscout.Metrics{ElapsedNS: int64(i)},
		}
		for f := range pts[i].Features {
			pts[i].Features[f] = float64(i*f) + 0.5
		}
	}
	return pts
}

// pinnedPoints is mixedPoints with rows whose features only the raw
// encoding keeps bit-exact (NaN payloads, −0, fractions, ±Inf, a
// subnormal), rows that name fewer features than they carry, and a row
// of extreme metrics, spliced in every 17th row and as one run of 40.
func pinnedPoints() []tscout.TrainingPoint {
	odd := func(i int) tscout.TrainingPoint {
		tp := tscout.TrainingPoint{OU: 7, OUName: "odd", Subsystem: 2, PID: -i,
			FeatureNames: []string{"x", "y"}, Metrics: tscout.Metrics{ElapsedNS: int64(i) * 3}}
		switch i % 4 {
		case 0: // NaN payloads and −0
			tp.Features = []float64{math.Float64frombits(0x7ff8000000000001 + uint64(i)), math.Copysign(0, -1)}
		case 1: // fractions, infinities and a subnormal
			tp.Features = []float64{float64(i) / 3, math.Inf(-1 + 2*(i%2)), 5e-324}
			tp.FeatureNames = tp.FeatureNames[:1] // fewer names than features
		case 2: // fewer names than features, all integral
			tp.OU, tp.OUName = 8, "short"
			tp.Features = []float64{float64(i), -float64(i), 1 << 40}
			tp.FeatureNames = nil
		default: // extreme metrics
			tp.Features = []float64{float64(i), 0}
			tp.Metrics = tscout.Metrics{ElapsedNS: math.MinInt64 + int64(i), Cycles: math.MaxUint64 - uint64(i),
				DiskWriteBytes: -int64(i), AllocBytes: math.MaxInt64}
		}
		return tp
	}
	var pts []tscout.TrainingPoint
	for i, tp := range mixedPoints() {
		pts = append(pts, tp)
		if i%17 == 5 {
			pts = append(pts, odd(i))
		}
		if i == 3000 {
			for j := 0; j < 40; j++ {
				pts = append(pts, odd(j))
			}
		}
	}
	return pts
}

// writerPins is the FNV-64a of the archive pinnedPoints makes at each
// segment size, whatever the size of the batches it arrives in. Any Writer
// must reproduce these bytes.
var writerPins = map[int]uint64{
	1:    0x8c8fb41fd98ba8c1,
	7:    0x9e3baeb2001607a7,
	500:  0x365b3cf6662c53d7,
	4096: 0xdb8c2d48f149ae7f,
}

// TestWriterBytesPinned holds the Writer's output to writerPins: segment
// sizes 1, 7, 500 and 4096, each fed in batches of 1, 13 and 256 points.
func TestWriterBytesPinned(t *testing.T) {
	pts := pinnedPoints()
	for _, segRows := range []int{1, 7, 500, 4096} {
		for _, batch := range []int{1, 13, 256} {
			var buf bytes.Buffer
			w := NewWriterSize(&buf, segRows)
			for lo := 0; lo < len(pts); lo += batch {
				if err := w.WriteBatch(pts[lo:min(lo+batch, len(pts))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			if got, want := h.Sum64(), writerPins[segRows]; got != want {
				t.Errorf("segments of %d rows, batches of %d: archive FNV-64a %#016x, want %#016x", segRows, batch, got, want)
			}
		}
	}
}

// clobberingSink is a Writer behind a sink that overwrites every point it
// delivered — metrics, OU name and feature values — as soon as the Writer's
// WriteBatch returns, as the Processor's next drain does to its scratch.
type clobberingSink struct{ *Writer }

func (s clobberingSink) WriteBatch(pts []tscout.TrainingPoint) error {
	err := s.Writer.WriteBatch(pts)
	for i := range pts {
		tp := &pts[i]
		tp.Metrics = tscout.Metrics{ElapsedNS: -1, Cycles: 1, AllocBytes: -1}
		tp.OUName = "clobbered"
		for f := range tp.Features {
			tp.Features[f] = math.NaN()
		}
	}
	return err
}

// TestWriterKeepsNothingOfABatch holds the Writer to the Sink's borrow
// contract: a batch and its points' vectors are the caller's again once
// WriteBatch returns, so rewriting them then must change nothing the
// archive holds, whatever the segment size.
func TestWriterKeepsNothingOfABatch(t *testing.T) {
	want := pinnedPoints()
	for _, segRows := range []int{7, 500, 4096} {
		var buf bytes.Buffer
		s := clobberingSink{NewWriterSize(&buf, segRows)}
		for lo := 0; lo < len(want); lo += 13 {
			batch := slices.Clone(want[lo:min(lo+13, len(want))])
			for i := range batch {
				batch[i].Features = slices.Clone(batch[i].Features)
			}
			if err := s.WriteBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if got := h.Sum64(); got != writerPins[segRows] {
			t.Errorf("segments of %d rows: archive FNV-64a %#016x after the batches were rewritten, want %#016x", segRows, got, writerPins[segRows])
		}
		r, err := NewReader(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Points()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("segments of %d rows: read %d points, want %d", segRows, len(got), len(want))
		}
		for i := range want {
			if !samePoint(got[i], want[i]) {
				t.Fatalf("segments of %d rows, row %d: got %+v, want %+v", segRows, i, got[i], want[i])
			}
		}
	}
}
