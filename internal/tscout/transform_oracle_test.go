package tscout

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"
)

// The per-sample decode the Processor ran before decodeBatch, kept under its
// own names as the oracle for it: one DecodeSample (a fresh []uint64), one
// floats (a fresh []float64) and a one-element []TrainingPoint per sample.
// FuzzProcessorDecode and TestBatchDecodeMatchesTransform compare the two.

// transform decodes a wire sample into training points, expanding fused
// samples into per-OU points with apportioned metrics.
func (p *Processor) transform(buf []byte, adj *featureAdjust) ([]TrainingPoint, error) {
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
	p.mu.Lock()
	split := p.splitter
	p.mu.Unlock()

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
func pointFor(def *OUDef, pid int, feats []uint64, m Metrics, adj *featureAdjust) TrainingPoint {
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

// oracleRingDecode is the kernel-ring arm of drainWorker as it stood over
// transform: what draining the samples as one batch of ring sub must leave
// in the points and in every field of the thread's tally.
func oracleRingDecode(p *Processor, samples [][]byte, sub SubsystemID) ([]TrainingPoint, drainTally) {
	var tally drainTally
	n := len(samples)
	tally.kernelSamples += int64(n)
	tally.drained[sub] += int64(n)
	tally.batches++
	tally.hist[histBucket(n)]++

	var adj featureAdjust
	pts := make([]TrainingPoint, 0, n)
	for i := 0; i < n; i++ {
		out, err := p.transform(samples[i], &adj)
		if err != nil {
			if errors.Is(err, errCorruptMetrics) {
				tally.corrupt[sub]++
			} else {
				tally.decodeErrs[sub]++
			}
			continue
		}
		pts = append(pts, out...)
	}
	tally.points[sub] += int64(len(pts))
	tally.padded[sub] += adj.padded
	tally.truncated[sub] += adj.truncated
	tally.produced += len(pts)
	return pts, tally
}

// samePoints is reflect.DeepEqual that does not tell an empty batch from a
// nil one (transform returns nil on error, decodeBatch an empty slice).
func samePoints(a, b []TrainingPoint) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// decodeDifferential decodes one sample with transform and, as a batch of
// one, with decodeBatch, and requires the same points, the same error class
// and the same repair counts from both.
func decodeDifferential(t *testing.T, p *Processor, buf []byte) {
	t.Helper()
	var wantAdj, gotAdj featureAdjust
	want, err := p.transform(buf, &wantAdj)
	var wantCorrupt, wantDecodeErrs int64
	if errors.Is(err, errCorruptMetrics) {
		wantCorrupt = 1
	} else if err != nil {
		wantDecodeErrs = 1
	}
	got, corrupt, decodeErrs := p.decodeBatch(userBatch{buf}, &gotAdj)
	if corrupt != wantCorrupt || decodeErrs != wantDecodeErrs {
		t.Fatalf("decodeBatch classed the sample corrupt=%d decodeErrs=%d, transform corrupt=%d decodeErrs=%d (%v)",
			corrupt, decodeErrs, wantCorrupt, wantDecodeErrs, err)
	}
	if !samePoints(got, want) {
		t.Fatalf("decodeBatch points differ from transform's:\n%+v\n%+v", got, want)
	}
	if gotAdj != wantAdj {
		t.Fatalf("decodeBatch repairs %+v, transform %+v", gotAdj, wantAdj)
	}
}

// TestBatchDecodeMatchesTransform drains one ring holding every kind of
// sample interleaved — exact, padded, truncated, unregistered, fused (one
// with a part to pad, one that fails on an unregistered part after a
// repair was already counted), corrupt metrics (on an unregistered OU too,
// which must still class as corrupt: metricsSane runs first), malformed —
// through drainWorker, and requires the points, their order and every field
// of the tally to equal the per-sample oracle's. Padding outweighs
// truncation, so a slab sized from the wire counts would be too small. The
// non-fused points' vectors must also sit back to back in one array.
func TestBatchDecodeMatchesTransform(t *testing.T) {
	ts, _, _, _ := deployPerCPU(t, 5, 1, 128, 1) // seq_scan and log_serialize, two features each
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

	const sub = SubsystemExecutionEngine
	ring := ts.CollectorFor(sub).Ring
	for _, buf := range samples {
		ring.SubmitFrom(0, buf)
	}
	p.taskGroup()
	var cols [NumSubsystems]*Collector
	for _, s := range AllSubsystems {
		cols[s] = ts.CollectorFor(s)
	}
	numRings := int(NumSubsystems)
	g := globalRingIndex(0, sub, 1)
	alloc := make([]int, numRings+1)
	alloc[g] = len(samples)
	var tally drainTally
	ptsByRing := make([][]TrainingPoint, numRings+1)
	p.drainWorker(0, 1, numRings, &cols, alloc, &tally, ptsByRing)

	want, wantTally := oracleRingDecode(p, samples, sub)
	got := ptsByRing[g]
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("points differ from the per-sample oracle's:\n%+v\n%+v", got, want)
	}
	if tally != wantTally {
		t.Fatalf("tally differs from the per-sample oracle's:\n%+v\n%+v", tally, wantTally)
	}
	if tally.corrupt[sub] != 12 || tally.decodeErrs[sub] != 18 || tally.padded[sub] != 18 || tally.truncated[sub] != 12 {
		t.Fatalf("the batch did not reach every arm: %+v", tally)
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
