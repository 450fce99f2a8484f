package bpf

import (
	"encoding/binary"
	"sync"
	"testing"
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

// TestRingBufferConcurrentSubmitDrainReset exercises the ring under
// concurrent producers, a draining consumer, and periodic resets; run with
// -race it proves the buffer's locking discipline (the Processor's sharded
// drain path calls DrainBatch from its own goroutine while Collectors
// submit).
func TestRingBufferConcurrentSubmitDrainReset(t *testing.T) {
	r := NewPerCPURing("t", 1, 64)
	const producers = 4
	const perProducer = 2000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				buf := make([]byte, 8)
				binary.LittleEndian.PutUint64(buf, uint64(p*perProducer+i))
				r.Submit(buf)
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	drained := 0
	var batch Batch
	for i := 0; ; i++ {
		batch.Reset()
		n := r.DrainBatch(0, &batch, 32)
		drained += n
		for j := 0; j < n; j++ {
			if got := len(batch.Sample(j)); got != 8 {
				t.Errorf("corrupt entry of %d bytes", got)
				return
			}
		}
		_ = r.Stats()
		// Reset only once something has been drained: on a loaded box the
		// producers can run start to finish between this iteration's drain
		// and its reset, which would then discard every sample there was.
		if i%97 == 96 && drained > 0 {
			r.Reset()
		}
		select {
		case <-done:
			// Producers may have finished after this loop's drain; count
			// the final sweep too.
			batch.Reset()
			drained += r.DrainBatch(0, &batch, 0)
			if st := r.Stats(); st.Pending != 0 {
				t.Fatalf("pending after final drain: %d", st.Pending)
			}
			if drained == 0 {
				t.Fatalf("consumer never saw a sample")
			}
			return
		default:
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
