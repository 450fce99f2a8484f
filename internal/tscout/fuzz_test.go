package tscout

import (
	"reflect"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

// fuzzProcessor builds a minimal TScout whose OU table resolves a few ids,
// so fuzzed samples exercise both the registered and unregistered paths of
// Processor.transform. Shared across fuzz execs: transform only reads it.
func fuzzProcessor() *Processor {
	k := kernel.New(sim.LargeHW, 3, 0)
	ts := New(k, Config{Mode: UserContinuous, Seed: 5})
	ts.MustRegisterOU(OUDef{
		ID: testOUSeqScan, Name: "seq_scan", Subsystem: SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_bytes"},
	}, ResourceSet{CPU: true})
	ts.MustRegisterOU(OUDef{
		ID: testOUWAL, Name: "log_serialize", Subsystem: SubsystemLogSerializer,
		Features: []string{"num_records", "bytes"},
	}, ResourceSet{CPU: true, Disk: true})
	return ts.Processor()
}

// TestDecodeFusedFeaturesHostileCounts is the regression test for two
// decoder crashes found by FuzzProcessorDecode: a part count of ^0 reaches
// make() as a negative cap, and a feature count of ^0 wraps negative
// through int() so the old i+n bound check passed and the slice expression
// panicked. Both inputs are reachable from SubmitUserSample, where a panic
// kills the drain goroutine.
func TestDecodeFusedFeaturesHostileCounts(t *testing.T) {
	hostile := [][]uint64{
		{^uint64(0)},                     // k = -1 after int conversion
		{1, 5, ^uint64(0)},               // nFeats wraps negative
		{2, 5, 1, 7},                     // claims 2 parts, payload ends mid-part
		{1, 5, 3, 1},                     // claims 3 features, only 1 present
		{^uint64(0) >> 1},                // k huge but positive: absurd alloc
		{3, 1, 0, 2, 0, 10, 1, 42, 9, 9}, // trailing junk after k parts is fine
	}
	for i, words := range hostile[:5] {
		if _, err := DecodeFusedFeatures(words); err == nil {
			t.Fatalf("case %d (%v): hostile counts accepted", i, words)
		}
	}
	parts, err := DecodeFusedFeatures(hostile[5])
	if err != nil {
		t.Fatalf("valid fused vector rejected: %v", err)
	}
	want := []FusedPart{
		{OU: 1},
		{OU: 2},
		{OU: 10, Features: []uint64{42}},
	}
	if !reflect.DeepEqual(parts, want) {
		t.Fatalf("decoded %+v, want %+v", parts, want)
	}
}

// FuzzProcessorDecode feeds arbitrary bytes through the full sample-decode
// path the Processor runs on every ring entry: DecodeSample, fused-vector
// expansion, and transform. The oracles: no input may panic; anything that
// decodes must round-trip through Encode and decode back identically; and
// every training point produced must have Features and FeatureNames of
// equal length (the invariant model training depends on). transform is the
// per-sample decode the Processor used to run (transform_oracle_test.go);
// decodeDifferential then holds decodeBatch, which it runs now, to it.
func FuzzProcessorDecode(f *testing.F) {
	p := fuzzProcessor()

	f.Add([]byte{})
	f.Add(EncodeSample(testOUSeqScan, 42, Metrics{ElapsedNS: 100, Cycles: 5}, []uint64{7, 9}))
	f.Add(EncodeSample(777, 1, Metrics{}, nil)) // unregistered OU
	fused, err := EncodeFusedFeatures([]FusedPart{
		{OU: testOUSeqScan, Features: []uint64{1, 2}},
		{OU: testOUWAL, Features: []uint64{3, 4}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeSample(FusedOUID, 42, Metrics{ElapsedNS: 100}, fused))
	// The two minimized crashers behind TestDecodeFusedFeaturesHostileCounts.
	f.Add(EncodeSample(FusedOUID, 1, Metrics{}, []uint64{^uint64(0)}))
	f.Add(EncodeSample(FusedOUID, 1, Metrics{}, []uint64{1, 5, ^uint64(0)}))
	// The arms decodeBatch and transform must agree on beyond the above: a
	// short vector (padded), a long one (truncated), a feature count one
	// past MaxFeatures, a length that is not whole words, wrapped counters.
	f.Add(EncodeSample(testOUSeqScan, 42, Metrics{ElapsedNS: 100}, []uint64{7}))
	f.Add(EncodeSample(testOUWAL, 42, Metrics{ElapsedNS: 100}, []uint64{1, 2, 3}))
	f.Add(EncodeSample(testOUSeqScan, 42, Metrics{}, make([]uint64, MaxFeatures+1)))
	f.Add(append(EncodeSample(testOUSeqScan, 42, Metrics{}, []uint64{7, 9}), 0))
	f.Add(EncodeSample(testOUSeqScan, 42, Metrics{Cycles: 1 << 63}, []uint64{7, 9}))

	f.Fuzz(func(t *testing.T, buf []byte) {
		// Runs once the assertions below are through, on every path out.
		defer decodeDifferential(t, p, buf)

		s, err := DecodeSample(buf)
		if err == nil {
			enc := EncodeSample(s.OU, s.PID, s.Metrics, s.Features)
			s2, err2 := DecodeSample(enc)
			if err2 != nil {
				t.Fatalf("re-encoded sample rejected: %v", err2)
			}
			if !reflect.DeepEqual(s, s2) {
				t.Fatalf("sample round trip:\n%+v\n%+v", s, s2)
			}
			if s.OU == FusedOUID {
				parts, ferr := DecodeFusedFeatures(s.Features)
				if ferr == nil {
					words, eerr := EncodeFusedFeatures(parts)
					if eerr != nil {
						t.Fatalf("decoded fused vector does not re-encode: %v", eerr)
					}
					p2, ferr2 := DecodeFusedFeatures(words)
					if ferr2 != nil || !reflect.DeepEqual(parts, p2) {
						t.Fatalf("fused round trip: %v\n%+v\n%+v", ferr2, parts, p2)
					}
				}
			}
		}

		var adj featureAdjust
		points, terr := p.transform(buf, &adj)
		if terr != nil {
			return
		}
		if err != nil {
			t.Fatalf("transform accepted a sample DecodeSample rejects: %v", err)
		}
		for _, tp := range points {
			if len(tp.Features) != len(tp.FeatureNames) {
				t.Fatalf("point for OU %d: %d features, %d names",
					tp.OU, len(tp.Features), len(tp.FeatureNames))
			}
			if _, ok := p.ts.OU(tp.OU); !ok {
				t.Fatalf("transform produced a point for unregistered OU %d", tp.OU)
			}
		}
	})
}
