package tscout

import (
	"errors"
	"sync"
	"testing"

	"tscout/internal/sim"
)

// recordingBatchSink is the slice-backed Sink this package's tests read
// training points back from (they cannot import internal/archive): it
// keeps every delivered point in arrival order and counts WriteBatch
// calls, and can be told to reject deliveries, or to count rows without
// keeping them.
type recordingBatchSink struct {
	mu           sync.Mutex
	pts          []TrainingPoint
	rows         int64
	batchCalls   int
	failBatches  bool
	discard      bool
	pointsInFail int
}

func (s *recordingBatchSink) WriteBatch(pts []TrainingPoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batchCalls++
	if s.failBatches {
		s.pointsInFail += len(pts)
		return errors.New("sink down")
	}
	s.rows += int64(len(pts))
	if !s.discard {
		s.pts = append(s.pts, pts...)
	}
	return nil
}

func (s *recordingBatchSink) Flush() error { return nil }

func (s *recordingBatchSink) Rows() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// points returns a snapshot of everything delivered so far, in sink order.
func (s *recordingBatchSink) points() []TrainingPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]TrainingPoint(nil), s.pts...)
}

// pointsFor returns the delivered points of one subsystem, in sink order.
func (s *recordingBatchSink) pointsFor(sub SubsystemID) []TrainingPoint {
	var out []TrainingPoint
	for _, tp := range s.points() {
		if tp.Subsystem == sub {
			out = append(out, tp)
		}
	}
	return out
}

// sinkOf returns the recording sink a test deployment was built with.
func sinkOf(ts *TScout) *recordingBatchSink {
	return ts.Processor().sink.(*recordingBatchSink)
}

// assertDeliveryIdentity checks that every point the Processor produced is
// either in the sink or in exactly one counted delivery bucket. The sink is
// the only store, so this is the whole of a point's accounting after Drain.
func assertDeliveryIdentity(tb testing.TB, st ProcessorStats, sinkRows int64) {
	tb.Helper()
	if st.Processed != sinkRows+st.SinkRetryDrops+int64(st.PendingRetry) {
		tb.Fatalf("delivery identity: processed %d != sink rows %d + retry drops %d + pending retry %d",
			st.Processed, sinkRows, st.SinkRetryDrops, st.PendingRetry)
	}
}

// fullVolume accepts the first left bytes, then fails every write — the
// shape of a filled-up export volume.
type fullVolume struct{ left int }

var errVolumeFull = errors.New("export volume full")

func (v *fullVolume) Write(p []byte) (int, error) {
	if len(p) > v.left {
		n := v.left
		v.left = 0
		return n, errVolumeFull
	}
	v.left -= len(p)
	return len(p), nil
}

// TestStickyCSVSinkFailsFastInPipeline is the CSV twin of the archive
// package's TestStickyWriterFailsFastInPipeline: a CSVSink's first write
// error is its bufio.Writer's for good, so once a delivery has failed the
// Processor must not park batches and walk them through the backoff ladder
// against a sink that can never accept them. After the one failing
// WriteBatch no retry is attempted, nothing stays parked, every lost point
// is counted at once, and intake carries on.
func TestStickyCSVSinkFailsFastInPipeline(t *testing.T) {
	vol := &fullVolume{left: 6000} // bufio flushes every 4 KiB: the second flush fails
	sink, err := NewCSVSink(vol)
	if err != nil {
		t.Fatal(err)
	}
	ts, k, scan := deployWithSink(t, sink)
	p := ts.Processor()
	task := k.NewTask("w")

	for i := 0; i < 400; i++ {
		runOU(ts, task, scan, sim.Work{Instructions: 500}, uint64(i), 8)
		if i%10 == 9 {
			p.Drain(DrainOptions{})
		}
	}
	for i := 0; i < 3; i++ {
		p.Drain(DrainOptions{})
	}

	if !errors.Is(sink.StickyErr(), errVolumeFull) {
		t.Fatalf("StickyErr = %v, want the volume's error (did the sink never flush?)", sink.StickyErr())
	}
	st := p.Stats()
	if st.SinkRetries != 0 {
		t.Fatalf("Processor burned %d backoff retries against a CSV sink whose error is permanent", st.SinkRetries)
	}
	if st.PendingRetry != 0 {
		t.Fatalf("%d points parked against a dead CSV sink", st.PendingRetry)
	}
	if st.SinkRetryDrops == 0 {
		t.Fatalf("points lost to the dead sink were not counted in SinkRetryDrops")
	}
	ks := st.Kernel[SubsystemExecutionEngine]
	if ks.Drained != 400 || ks.Points != 400 {
		t.Fatalf("intake suffered from the dead sink: drained %d, points %d, want 400 each", ks.Drained, ks.Points)
	}
	if st.SinkRetryDrops != ks.SinkErrors {
		t.Fatalf("SinkRetryDrops %d != SinkErrors %d: a point was dropped without being charged, or charged twice",
			st.SinkRetryDrops, ks.SinkErrors)
	}
}
