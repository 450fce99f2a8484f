package tscout

import (
	"errors"
	"slices"
	"testing"
)

// recordingBatchSink is the slice-backed Sink this package's tests read
// training points back from (they cannot import internal/archive): it
// keeps a copy of every delivered point, its feature vector too (both are
// borrowed), in arrival order and counts WriteBatch calls, and can be told
// to reject deliveries, or to count rows without keeping them.
type recordingBatchSink struct {
	pts          []TrainingPoint
	rows         int64
	batchCalls   int
	failBatches  bool
	discard      bool
	pointsInFail int
	// inspect, when set, sees each accepted batch as the Processor lends
	// it, before anything is copied.
	inspect func(pts []TrainingPoint)
}

func (s *recordingBatchSink) WriteBatch(pts []TrainingPoint) error {
	s.batchCalls++
	if s.failBatches {
		s.pointsInFail += len(pts)
		return errors.New("sink down")
	}
	s.rows += int64(len(pts))
	if s.inspect != nil {
		s.inspect(pts)
	}
	if !s.discard {
		for _, tp := range pts {
			tp.Features = slices.Clone(tp.Features)
			s.pts = append(s.pts, tp)
		}
	}
	return nil
}

func (s *recordingBatchSink) Flush() error { return nil }

func (s *recordingBatchSink) Rows() int64 { return s.rows }

// points returns a snapshot of everything delivered so far, in sink order.
func (s *recordingBatchSink) points() []TrainingPoint {
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
	if st.Processed != sinkRows+st.SinkRetryDrops {
		tb.Fatalf("delivery identity: processed %d != sink rows %d + sink drops %d",
			st.Processed, sinkRows, st.SinkRetryDrops)
	}
}
