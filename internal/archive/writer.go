package archive

import (
	"io"

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
// call reports the same error, so the Processor charges every later batch
// to SinkErrors against a consistently failed sink.
type Writer struct {
	dst     io.Writer
	pending []tscout.TrainingPoint // rows not yet sealed
	perSeg  int                    // rows per segment
	rows    int64                  // total accepted rows
	nextRow uint64                 // next global row index
	err     error                  // sticky write error
	enc     encoder                // reusable seal scratch
	wire    []byte                 // reusable wire buffer
	onSeal  func(segment []byte)   // seal notification target
}

// The Processor detects the sticky failure through StickySink and stops
// offering batches to a torn archive.
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

// SetOnSeal registers fn to receive every sealed segment's wire bytes. fn
// runs inline, right after the segment has been written to dst, so
// notifications arrive in seal order, and any concatenation of
// consecutively sealed segments parses with NewReader: this is the
// autopilot's incremental tail read, no re-scan of the full archive. The
// slice is the Writer's encode buffer, lent for the call: the next seal
// overwrites it, so fn must copy what it keeps and must not modify it.
// Pass nil to stop notifications.
func (w *Writer) SetOnSeal(fn func(segment []byte)) { w.onSeal = fn }

// WriteBatch implements tscout.Sink. The batch is copied into the pending
// buffer; full segments seal inline (for the Processor, inside Drain).
func (w *Writer) WriteBatch(pts []tscout.TrainingPoint) error {
	if w.err != nil {
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
	for len(w.pending) >= w.perSeg {
		if err := w.seal(w.perSeg); err != nil {
			return err
		}
	}
	w.rows += int64(len(pts))
	return nil
}

// Flush implements tscout.Sink: the pending remainder is sealed into a
// final (short) segment.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.pending) > 0 {
		return w.seal(len(w.pending))
	}
	return nil
}

// Rows implements tscout.Sink.
func (w *Writer) Rows() int64 { return w.rows }

// StickyErr implements tscout.StickySink: it reports the writer's
// permanent error without consuming a write. The Processor uses it to
// count a batch lost without offering it to a torn archive, which is
// guaranteed to reject it.
func (w *Writer) StickyErr() error { return w.err }

// seal encodes the first n pending rows as one segment, writes it to dst
// and notifies the seal listener.
func (w *Writer) seal(n int) error {
	w.wire = w.enc.encodeSegment(w.wire[:0], w.pending[:n], w.nextRow)
	if _, err := w.dst.Write(w.wire); err != nil {
		w.err = err
		return err
	}
	w.nextRow += uint64(n)
	// Slide the tail down rather than re-slicing so sealed TrainingPoints
	// (and their Features backing arrays) are released promptly.
	rem := copy(w.pending, w.pending[n:])
	for i := rem; i < len(w.pending); i++ {
		w.pending[i] = tscout.TrainingPoint{}
	}
	w.pending = w.pending[:rem]
	if w.onSeal != nil {
		w.onSeal(w.wire)
	}
	return nil
}
