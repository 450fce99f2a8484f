package archive

import (
	"io"
	"sync"

	"tscout/internal/tscout"
)

// DefaultSegmentRows is how many training points a Writer accumulates
// before sealing a segment. Large enough that delta encoding and the
// shared footer amortize well, small enough that a reader's block-decode
// granularity stays cache-friendly.
const DefaultSegmentRows = 4096

// Writer is the archive's tscout.Sink: WriteBatch buffers drained points
// and seals them into columnar wire segments on dst once DefaultSegmentRows
// accumulate (Flush seals the remainder). Global row indexes are assigned
// in arrival order, so an archive written at drain parallelism 1
// reproduces the Processor's point order exactly.
//
// Errors from dst are sticky: once a segment write fails, every later
// call reports the same error so the Processor's retry/SinkErrors
// accounting sees a consistently failed sink.
type Writer struct {
	mu      sync.Mutex
	dst     io.Writer              // guarded by mu
	pending []tscout.TrainingPoint // guarded by mu — rows not yet sealed
	perSeg  int                    // guarded by mu — rows per segment
	rows    int64                  // guarded by mu — total accepted rows
	nextRow uint64                 // guarded by mu — next global row index
	err     error                  // guarded by mu — sticky write error
	enc     encoder                // guarded by mu — reusable seal scratch
	wire    []byte                 // guarded by mu — reusable wire buffer
	onSeal  func(segment []byte)   // guarded by mu — seal notification target
	staged  [][]byte               // guarded by mu — sealed wire awaiting notify
}

// The Processor detects the sticky failure through StickySink and fails
// fast instead of burning retry backoff against a torn archive.
var _ tscout.StickySink = (*Writer)(nil)

// NewWriter returns a Writer sealing DefaultSegmentRows-row segments.
func NewWriter(dst io.Writer) *Writer {
	return NewWriterSize(dst, DefaultSegmentRows)
}

// NewWriterSize returns a Writer sealing rowsPerSegment-row segments
// (values < 1 fall back to the default). Small sizes are used by tests to
// force multi-segment archives from small inputs.
func NewWriterSize(dst io.Writer, rowsPerSegment int) *Writer {
	if rowsPerSegment < 1 {
		rowsPerSegment = DefaultSegmentRows
	}
	return &Writer{dst: dst, perSeg: rowsPerSegment}
}

// SetOnSeal registers fn to receive a copy of every sealed segment's wire
// bytes. fn runs on the sealing goroutine, after the segment has been
// written to dst and outside the writer's lock (so it may call back into
// the Writer). With a single sealing goroutine — the Processor's flush
// loop is one — notifications arrive in seal order, and any concatenation
// of consecutively sealed segments parses with NewReader: this is the
// autopilot's incremental tail read, no re-scan of the full archive.
// Pass nil to stop notifications.
func (w *Writer) SetOnSeal(fn func(segment []byte)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onSeal = fn
}

// WriteBatch implements tscout.Sink. The batch is copied into the pending
// buffer under one lock acquisition; full segments seal inline on the
// caller's goroutine (for the Processor, the one that called Drain).
func (w *Writer) WriteBatch(pts []tscout.TrainingPoint) error {
	w.mu.Lock()
	if w.err != nil {
		w.mu.Unlock()
		return w.err
	}
	// Grow straight to one segment's capacity instead of walking append's
	// doubling chain: pending oscillates within [0, perSeg+batch), so a
	// single reservation serves the writer's whole life.
	if need := len(w.pending) + len(pts); need > cap(w.pending) {
		if need < w.perSeg {
			need = w.perSeg
		}
		np := make([]tscout.TrainingPoint, len(w.pending), need)
		copy(np, w.pending)
		w.pending = np
	}
	w.pending = append(w.pending, pts...)
	var err error
	for len(w.pending) >= w.perSeg {
		if err = w.sealLocked(w.perSeg); err != nil {
			break
		}
	}
	if err == nil {
		w.rows += int64(len(pts))
	}
	return w.unlockAndNotifyLocked(err)
}

// Flush implements tscout.Sink: the pending remainder is sealed into a
// final (short) segment.
func (w *Writer) Flush() error {
	w.mu.Lock()
	if w.err != nil {
		w.mu.Unlock()
		return w.err
	}
	var err error
	if len(w.pending) > 0 {
		err = w.sealLocked(len(w.pending))
	}
	return w.unlockAndNotifyLocked(err)
}

// unlockAndNotifyLocked is entered holding mu: it takes the staged seal
// notifications, releases the lock, delivers them in seal order, and
// passes err through. Segments sealed before a write error are still
// delivered — they reached dst.
func (w *Writer) unlockAndNotifyLocked(err error) error {
	staged := w.staged
	w.staged = nil
	fn := w.onSeal
	w.mu.Unlock()
	for _, seg := range staged {
		fn(seg)
	}
	return err
}

// Rows implements tscout.Sink.
func (w *Writer) Rows() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rows
}

// StickyErr implements tscout.StickySink: it reports the writer's
// permanent error without consuming a write. The Processor uses it to
// fail fast instead of retrying deliveries that a torn archive is
// guaranteed to reject.
func (w *Writer) StickyErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// sealLocked encodes the first n pending rows as one segment and writes
// it to dst. Caller holds mu.
func (w *Writer) sealLocked(n int) error {
	w.wire = w.enc.encodeSegment(w.wire[:0], w.pending[:n], w.nextRow)
	if _, err := w.dst.Write(w.wire); err != nil {
		w.err = err
		return err
	}
	if w.onSeal != nil {
		// Stage a copy for delivery after the lock drops (wire is reused
		// by the next seal).
		w.staged = append(w.staged, append([]byte(nil), w.wire...))
	}
	w.nextRow += uint64(n)
	// Slide the tail down rather than re-slicing so sealed TrainingPoints
	// (and their Features backing arrays) are released promptly.
	rem := copy(w.pending, w.pending[n:])
	for i := rem; i < len(w.pending); i++ {
		w.pending[i] = tscout.TrainingPoint{}
	}
	w.pending = w.pending[:rem]
	return nil
}
