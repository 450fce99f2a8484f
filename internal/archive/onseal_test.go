package archive

import (
	"bytes"
	"fmt"
	"testing"

	"tscout/internal/tscout"
)

func sealTestPoints(n int) []tscout.TrainingPoint {
	pts := make([]tscout.TrainingPoint, n)
	for i := range pts {
		pts[i] = tscout.TrainingPoint{
			OU:           tscout.OUID(1 + i%3),
			OUName:       fmt.Sprintf("ou%d", 1+i%3),
			Subsystem:    tscout.SubsystemExecutionEngine,
			PID:          10,
			Metrics:      tscout.Metrics{ElapsedNS: int64(i)*100 + 7},
			Features:     []float64{float64(i), 2},
			FeatureNames: []string{"a", "b"},
		}
	}
	return pts
}

// TestOnSealNotifications: every sealed segment is delivered exactly
// once, in seal order, with wire bytes identical to what reached dst, and
// any tail of consecutively sealed segments parses as an archive whose
// points match the corresponding input rows — the incremental read the
// autopilot depends on.
func TestOnSealNotifications(t *testing.T) {
	const perSeg = 16
	var dst bytes.Buffer
	var segs [][]byte
	w := NewWriterSize(&dst, perSeg)
	w.SetOnSeal(func(seg []byte) { segs = append(segs, bytes.Clone(seg)) })

	pts := sealTestPoints(100)
	// Deliver in uneven batches so seals land mid-batch and multi-seal
	// batches occur.
	for lo := 0; lo < len(pts); {
		hi := lo + 7
		if hi > len(pts) {
			hi = len(pts)
		}
		if err := w.WriteBatch(pts[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	wantSegs := (len(pts) + perSeg - 1) / perSeg
	if len(segs) != wantSegs {
		t.Fatalf("got %d seal notifications, want %d", len(segs), wantSegs)
	}
	// The concatenated notifications are exactly the bytes on dst.
	var cat []byte
	for _, s := range segs {
		cat = append(cat, s...)
	}
	if !bytes.Equal(cat, dst.Bytes()) {
		t.Fatalf("notified wire (%d bytes) differs from dst (%d bytes)", len(cat), dst.Len())
	}

	// Every suffix of the seal sequence is a readable tail archive whose
	// points are the corresponding input rows.
	for start := 0; start < len(segs); start++ {
		var tail []byte
		for _, s := range segs[start:] {
			tail = append(tail, s...)
		}
		r, err := NewReader(tail)
		if err != nil {
			t.Fatalf("tail from segment %d unreadable: %v", start, err)
		}
		got, err := r.Points()
		if err != nil {
			t.Fatal(err)
		}
		wantRows := pts[start*perSeg:]
		if len(got) != len(wantRows) {
			t.Fatalf("tail from segment %d: %d points, want %d", start, len(got), len(wantRows))
		}
		for i := range got {
			if !samePoint(got[i], wantRows[i]) {
				t.Fatalf("tail from segment %d: point %d differs", start, i)
			}
		}
	}
}

// TestOnSealStopsOnError: segments sealed before a write error are still
// notified (they reached dst); nothing after the failure is.
func TestOnSealStopsOnError(t *testing.T) {
	disk := &brokenDisk{okWrites: 2}
	var n int
	w := NewWriterSize(disk, 8)
	w.SetOnSeal(func([]byte) { n++ })
	if err := w.WriteBatch(sealTestPoints(40)); err == nil {
		t.Fatal("write past a dead disk did not fail")
	}
	if n != 2 {
		t.Fatalf("got %d notifications, want 2 (the seals that reached dst)", n)
	}
	if err := w.WriteBatch(sealTestPoints(8)); err == nil {
		t.Fatal("sticky error not reported")
	}
	if n != 2 {
		t.Fatalf("sticky-failed writer kept notifying: %d", n)
	}
}
