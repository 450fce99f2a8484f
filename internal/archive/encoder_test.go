package archive

import (
	"fmt"
	"testing"

	"tscout/internal/tscout"
)

// TestSealAllocationsPerSegment is the encoder's allocation contract: its
// grouping map, row lists and block metadata are kept across seals, so once
// a block mix has been sealed, sealing it again allocates a small constant
// that does not grow with the segment's block count.
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
		var e encoder
		wire := e.encodeSegment(nil, pts, 0)
		perBlocks[blocks] = testing.AllocsPerRun(10, func() {
			wire = e.encodeSegment(wire[:0], pts, uint64(rows))
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
	const segRows = 500
	var e encoder
	for lo := 0; lo < len(pts); lo += segRows {
		e.encodeSegment(nil, pts[lo:min(lo+segRows, len(pts))], uint64(lo))
		if n := len(e.blocks); n > maxBlockKeys+segRows {
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
