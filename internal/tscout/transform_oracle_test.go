package tscout

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"tscout/internal/bpf"
)

// The per-sample decode the Processor ran before decodeBatch, kept under its
// own names as the oracle for it: one DecodeSample (a fresh []uint64), one
// floats (a fresh []float64) and a one-element []TrainingPoint per sample.
// FuzzProcessorDecode and TestBatchDecodeMatchesTransform compare the two.

// transform decodes a wire sample into training points, expanding fused
// samples into per-OU points with apportioned metrics.
func (p *Processor) transform(buf []byte, adj *decodeCounts) ([]TrainingPoint, error) {
	s, err := DecodeSample(buf)
	if err != nil {
		return nil, err
	}
	// Sanity-check the raw metrics before any fused-sample expansion:
	// scaleMetrics would smear a wrapped counter across every part.
	if !metricsSane(s.Metrics) {
		return nil, errCorruptMetrics
	}
	if s.OU != FusedOUID {
		def, ok := p.ts.OU(s.OU)
		if !ok {
			return nil, fmt.Errorf("tscout: sample for unregistered OU %d", s.OU)
		}
		return []TrainingPoint{pointFor(def, s.PID, s.Features, s.Metrics, adj)}, nil
	}

	parts, err := DecodeFusedFeatures(s.Features)
	if err != nil {
		return nil, err
	}
	split := p.splitter

	weights := make([]float64, len(parts))
	var total float64
	for i, part := range parts {
		w := 1.0
		if split != nil {
			w = split(part.OU, floats(part.Features))
			if w <= 0 {
				w = 1e-9
			}
		}
		weights[i] = w
		total += w
	}
	out := make([]TrainingPoint, 0, len(parts))
	for i, part := range parts {
		def, ok := p.ts.OU(part.OU)
		if !ok {
			return nil, fmt.Errorf("tscout: fused sample for unregistered OU %d", part.OU)
		}
		out = append(out, pointFor(def, s.PID, part.Features, scaleMetrics(s.Metrics, weights[i]/total), adj))
	}
	return out, nil
}

// pointFor builds one training point, normalizing the feature vector to
// the OU's declared width: long vectors are truncated, short vectors are
// zero-padded, and both repairs are counted. Features and FeatureNames
// therefore always have equal length — silently emitting short vectors
// would skew model training with misaligned features.
func pointFor(def *OUDef, pid int, feats []uint64, m Metrics, adj *decodeCounts) TrainingPoint {
	f := floats(feats)
	switch {
	case len(f) > len(def.Features):
		f = f[:len(def.Features)]
		adj.truncated++
	case len(f) < len(def.Features):
		padded := make([]float64, len(def.Features))
		copy(padded, f)
		f = padded
		adj.padded++
	}
	return TrainingPoint{
		OU:           def.ID,
		OUName:       def.Name,
		Subsystem:    def.Subsystem,
		PID:          pid,
		Features:     f,
		FeatureNames: def.Features,
		Metrics:      m,
	}
}

func floats(words []uint64) []float64 {
	out := make([]float64, len(words))
	for i, w := range words {
		out[i] = float64(w)
	}
	return out
}

// oracleRingDecode is what Drain must make of samples drained as one kernel
// ring batch, by way of transform: the points, in order, and what the batch
// adds to its subsystem's drain and decode counters.
func oracleRingDecode(p *Processor, samples [][]byte) ([]TrainingPoint, SubsystemStats) {
	want := SubsystemStats{Drained: int64(len(samples))}
	var adj decodeCounts
	var pts []TrainingPoint
	for _, buf := range samples {
		out, err := p.transform(buf, &adj)
		if errors.Is(err, errCorruptMetrics) {
			want.CorruptDiscards++
		} else if err != nil {
			want.DecodeErrors++
		}
		pts = append(pts, out...)
	}
	want.Points = int64(len(pts))
	want.PaddedFeatures, want.TruncatedFeatures = adj.padded, adj.truncated
	return pts, want
}

// decodeDelta is what a drain added to the counters oracleRingDecode
// predicts, from one Stats snapshot of a subsystem to the next.
func decodeDelta(before, after SubsystemStats) SubsystemStats {
	return SubsystemStats{
		Drained:           after.Drained - before.Drained,
		DecodeErrors:      after.DecodeErrors - before.DecodeErrors,
		CorruptDiscards:   after.CorruptDiscards - before.CorruptDiscards,
		PaddedFeatures:    after.PaddedFeatures - before.PaddedFeatures,
		TruncatedFeatures: after.TruncatedFeatures - before.TruncatedFeatures,
		Points:            after.Points - before.Points,
	}
}

// samePoints is reflect.DeepEqual that does not tell an empty batch from a
// nil one (transform returns an empty batch for a fused sample of no parts,
// decodeBatch appends nothing).
func samePoints(a, b []TrainingPoint) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// decodeDifferential decodes one sample with transform and, as a one-sample
// ring batch, with decodeBatch, and requires the same points, the same error
// class and the same repair counts from both.
func decodeDifferential(t *testing.T, p *Processor, buf []byte) {
	t.Helper()
	var wantCounts decodeCounts
	want, err := p.transform(buf, &wantCounts)
	if errors.Is(err, errCorruptMetrics) {
		wantCounts.corrupt = 1
	} else if err != nil {
		wantCounts.decodeErrs = 1
	}
	var b bpf.Batch
	b.Append(buf)
	var counts decodeCounts
	got := p.decodeBatch(nil, &b, &counts)
	if counts != wantCounts {
		t.Fatalf("decodeBatch counted %+v, transform %+v (%v)", counts, wantCounts, err)
	}
	if !samePoints(got, want) {
		t.Fatalf("decodeBatch points differ from transform's:\n%+v\n%+v", got, want)
	}
}

// TestBatchDecodeMatchesTransform drains one ring holding every kind of
// sample interleaved — exact, padded, truncated, unregistered, fused (one
// with a part to pad, one that fails on an unregistered part after a
// repair was already counted), corrupt metrics (on an unregistered OU too,
// which must still class as corrupt: metricsSane runs first), malformed —
// through Drain, and requires the sink's points, their order and what the
// drain added to the ring subsystem's Stats to equal the per-sample
// oracle's. Padding outweighs truncation, so a slab sized from the wire
// counts would be too small. The non-fused points' vectors must also sit
// back to back in one array, and the ring's samples must be charged to the
// drain thread that owns the ring — thread 1 of two — and to no other.
func TestBatchDecodeMatchesTransform(t *testing.T) {
	const numCPUs, par = 2, 2
	ts, _, _, _ := deployPerCPU(t, KernelContinuous, 5, numCPUs, 128, par) // seq_scan and log_serialize, two features each
	p := ts.Processor()
	p.SetSplitter(func(ou OUID, f []float64) float64 { return 1 + float64(len(f)) })

	fused := func(parts ...FusedPart) []uint64 {
		words, err := EncodeFusedFeatures(parts)
		if err != nil {
			t.Fatal(err)
		}
		return words
	}
	sane := Metrics{ElapsedNS: 900, Cycles: 40, Instructions: 77, DiskWriteBytes: 512}
	wrapped := Metrics{ElapsedNS: 900, Cycles: 1 << 63}
	var samples [][]byte
	for round := uint64(0); round < 6; round++ {
		samples = append(samples,
			EncodeSample(testOUSeqScan, 10, sane, []uint64{round, 8}), // exact
			EncodeSample(testOUSeqScan, 11, sane, nil),                // padded by two
			EncodeSample(777, 12, sane, []uint64{1}),                  // unregistered
			EncodeSample(testOUWAL, 13, sane, []uint64{round, 2, 3}),  // truncated by one
			EncodeSample(testOUSeqScan, 14, wrapped, []uint64{1, 2}),  // corrupt
			EncodeSample(testOUWAL, 15, sane, []uint64{round}),        // padded by one
			EncodeSample(777, 16, wrapped, nil),                       // corrupt before unregistered
			EncodeSample(FusedOUID, 17, sane, fused( // fused, second part padded
				FusedPart{OU: testOUSeqScan, Features: []uint64{round, 9}},
				FusedPart{OU: testOUWAL, Features: []uint64{5}})),
			EncodeSample(testOUSeqScan, 18, sane, []uint64{round + 100, 8})[:15*8+7], // not whole words
			EncodeSample(FusedOUID, 19, sane, fused( // repair counted, then a bad part
				FusedPart{OU: testOUSeqScan, Features: []uint64{1, 2, 3}},
				FusedPart{OU: 777, Features: []uint64{5}})),
			EncodeSample(testOUSeqScan, 20, sane, []uint64{round, 16}), // exact
		)
	}

	const sub, cpu = SubsystemExecutionEngine, 1
	ring := ts.CollectorFor(sub).Ring
	for _, buf := range samples {
		ring.SubmitFrom(cpu, buf)
	}
	group := p.taskGroup()
	var chargedBefore [par]int64
	for i := range chargedBefore {
		chargedBefore[i] = group.Task(i).UserInstrumentationNS
	}
	before := p.Stats()
	res := p.Drain(DrainOptions{})
	after := p.Stats()

	want, wantStats := oracleRingDecode(p, samples)
	got := sinkOf(ts).points()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("points differ from the per-sample oracle's:\n%+v\n%+v", got, want)
	}
	delta := decodeDelta(before.Kernel[sub], after.Kernel[sub])
	if delta != wantStats {
		t.Fatalf("stats moved differently from the per-sample oracle's:\n%+v\n%+v", delta, wantStats)
	}
	if delta.CorruptDiscards != 12 || delta.DecodeErrors != 18 || delta.PaddedFeatures != 18 || delta.TruncatedFeatures != 12 {
		t.Fatalf("the batch did not reach every arm: %+v", delta)
	}
	if wantRes := (DrainResult{Points: len(want), Drained: len(samples), Batches: 1}); res != wantRes {
		t.Fatalf("drain = %+v, want %+v", res, wantRes)
	}
	for b := range after.BatchSizeHist {
		want := int64(0)
		if b == histBucket(len(samples)) {
			want = 1
		}
		if n := after.BatchSizeHist[b] - before.BatchSizeHist[b]; n != want {
			t.Fatalf("batch histogram bucket %s moved by %d, want %d", BatchHistLabels[b], n, want)
		}
	}

	// Every drain thread pays the poll; only the ring's owner pays its
	// samples (the kernel runs without noise here, so charges are exact).
	owner := ringOwner(globalRingIndex(cpu, sub, numCPUs), par)
	if owner == 0 {
		t.Fatalf("the ring is owned by thread 0; a charge to the wrong thread could go unseen")
	}
	for i := range chargedBefore {
		want := int64(pollBaseNS)
		if i == owner {
			want += int64(len(samples)) * processSampleNS
		}
		if got := group.Task(i).UserInstrumentationNS - chargedBefore[i]; got != want {
			t.Fatalf("drain thread %d charged %d ns, want %d", i, got, want)
		}
	}

	// The slab is real: between two fused expansions the points' vectors
	// are consecutive runs of one backing array.
	adjacent := 0
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.PID == 17 || b.PID == 17 {
			continue // a fused part brings its own vector
		}
		gap := uintptr(unsafe.Pointer(&b.Features[0])) - uintptr(unsafe.Pointer(&a.Features[0]))
		if gap != uintptr(len(a.Features))*unsafe.Sizeof(float64(0)) {
			t.Fatalf("points %d and %d: vectors %d bytes apart, want %d (one slab)", i-1, i, gap, len(a.Features)*8)
		}
		adjacent++
	}
	if adjacent < 20 {
		t.Fatalf("only %d adjacent pairs checked", adjacent)
	}
}
