package bpf

import (
	"encoding/binary"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

func TestRingBufferFIFOAndOverwrite(t *testing.T) {
	r := NewPerCPURing("t", 1, 4)
	for i := 0; i < 6; i++ {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, uint64(i))
		r.Submit(buf)
	}
	st := r.Stats()
	if st.Submitted != 6 || st.Dropped != 2 || st.Pending != 4 || st.Capacity != 4 {
		t.Fatalf("stats: %+v", st)
	}
	var out Batch
	if n := r.DrainBatch(0, &out, 0); n != 4 {
		t.Fatalf("drained %d", n)
	}
	// Oldest two were overwritten; 2..5 survive in order.
	for i := 0; i < out.Len(); i++ {
		if got := binary.LittleEndian.Uint64(out.Sample(i)); got != uint64(i+2) {
			t.Fatalf("entry %d: got %d want %d", i, got, i+2)
		}
	}
}

// TestRingBufferDrainAppendBatches: DrainBatch appends to the batch it is
// given, so successive bounded drains accumulate in submission order.
func TestRingBufferDrainAppendBatches(t *testing.T) {
	r := NewPerCPURing("t", 1, 16)
	for i := 0; i < 10; i++ {
		r.Submit([]byte{byte(i)})
	}
	var dst Batch
	if n := r.DrainBatch(0, &dst, 3); n != 3 || dst.Len() != 3 {
		t.Fatalf("first batch: n=%d len=%d", n, dst.Len())
	}
	if n := r.DrainBatch(0, &dst, 0); n != 7 || dst.Len() != 10 {
		t.Fatalf("second batch: n=%d len=%d", n, dst.Len())
	}
	for i := 0; i < dst.Len(); i++ {
		if got := dst.Sample(i)[0]; got != byte(i) {
			t.Fatalf("order broken at %d: %d", i, got)
		}
	}
	if st := r.Stats(); st.Pending != 0 {
		t.Fatalf("pending after full drain: %d", st.Pending)
	}
}

// TestRingBufferConcurrentSubmitDrainReset interleaves producers on four
// CPU lanes, a budgeted drain, stats reads and resets of one ring under
// seeded kernel.Interleaver schedules, and holds the ring to a FIFO model
// with overwrite: every drained sample, and after the final drain every
// counter, must match it exactly.
func TestRingBufferConcurrentSubmitDrainReset(t *testing.T) {
	const producers, perProducer, capacity = 4, 500, 64
	for seed := int64(1); seed <= 3; seed++ {
		r := NewPerCPURing("t", 1, capacity)
		var model []uint64 // pending samples, oldest first
		var submitted, drained, dropped int64
		var batch Batch
		drain := func(max int) {
			batch.Reset()
			n := r.DrainBatch(0, &batch, max)
			for j := 0; j < n; j++ {
				if got := U64(batch.Sample(j)); got != model[j] {
					t.Fatalf("seed %d: drained %d, model has %d", seed, got, model[j])
				}
			}
			model = model[n:]
			drained += int64(n)
		}
		iv := kernel.New(sim.LargeHW, seed, 0).NewInterleaver(seed)
		for p := 0; p < producers; p++ {
			iv.AddOn("submit", p, perProducer, func(i int) {
				v := uint64(p*perProducer + i)
				r.Submit(U64Key(v))
				submitted++
				if len(model) == capacity {
					model = model[1:]
					dropped++
				}
				model = append(model, v)
			})
		}
		iv.AddOn("drain", 0, 500, func(int) { drain(32) })
		iv.AddOn("stats", 0, 100, func(int) {
			st := r.Stats()
			if st.Submitted != submitted || st.Drained != drained || st.Dropped != dropped || st.Pending != len(model) {
				t.Fatalf("seed %d: stats %+v, model submitted=%d drained=%d dropped=%d pending=%d",
					seed, st, submitted, drained, dropped, len(model))
			}
		})
		iv.AddOn("reset", 0, 5, func(int) {
			r.Reset()
			model, submitted, drained, dropped = nil, 0, 0, 0
		})
		iv.Run()
		drain(0)
		st := r.Stats()
		if st.Pending != 0 || st.Submitted != submitted || st.Drained != drained || st.Dropped != dropped ||
			st.Submitted != st.Drained+st.Dropped {
			t.Fatalf("seed %d: after final drain %+v, model submitted=%d drained=%d dropped=%d",
				seed, st, submitted, drained, dropped)
		}
	}
}

// TestRingBufferStatsConsistency: submitted - dropped must equal drained +
// pending at any quiescent point (the invariant the Processor's telemetry
// reports on).
func TestRingBufferStatsConsistency(t *testing.T) {
	r := NewPerCPURing("t", 1, 8)
	for i := 0; i < 20; i++ {
		r.Submit([]byte{byte(i)})
	}
	var b Batch
	got := r.DrainBatch(0, &b, 5)
	st := r.Stats()
	if st.Submitted-st.Dropped != int64(got+st.Pending) {
		t.Fatalf("invariant broken: %+v drained=%d", st, got)
	}
}
