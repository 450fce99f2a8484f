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

// Writer is the archive's tscout.Sink: WriteBatch appends each drained
// point's values to the column builder of its block in the open segment,
// and the segment seals into columnar wire segments on dst as soon as it
// holds DefaultSegmentRows rows (Flush seals the remainder). The Writer
// keeps nothing of a batch: the Processor's points and their vectors are
// borrowed only until WriteBatch returns. Global row indexes are assigned
// in arrival order, so an archive written at drain parallelism 1 reproduces
// the Processor's point order exactly.
//
// Errors from dst are sticky: once a segment write fails, every later
// call reports the same error, so the Processor charges every later batch
// to SinkErrors against a consistently failed sink.
type Writer struct {
	dst     io.Writer
	perSeg  int                  // rows per segment
	open    int                  // rows in the open segment
	rows    int64                // total accepted rows
	nextRow uint64               // global row index of the open segment's first row
	err     error                // sticky write error
	enc     encoder              // the open segment's blocks and the seal scratch
	wire    []byte               // reusable wire buffer
	onSeal  func(segment []byte) // seal notification target
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

// WriteBatch implements tscout.Sink. Each point goes into its block's
// columns at once; a full segment seals inline (for the Processor, inside
// Drain), so nothing of pts is kept once WriteBatch returns.
func (w *Writer) WriteBatch(pts []tscout.TrainingPoint) error {
	if w.err != nil {
		return w.err
	}
	for i := range pts {
		w.enc.add(&pts[i], w.nextRow+uint64(w.open))
		if w.open++; w.open == w.perSeg {
			if err := w.seal(); err != nil {
				return err
			}
		}
	}
	w.rows += int64(len(pts))
	return nil
}

// Flush implements tscout.Sink: the open segment's rows are sealed into a
// final (short) segment.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.open > 0 {
		return w.seal()
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

// seal encodes the open segment, writes it to dst and notifies the seal
// listener.
func (w *Writer) seal() error {
	w.wire = w.enc.encodeSegment(w.wire[:0], w.open)
	if _, err := w.dst.Write(w.wire); err != nil {
		w.err = err
		return err
	}
	w.nextRow += uint64(w.open)
	w.open = 0
	if w.onSeal != nil {
		w.onSeal(w.wire)
	}
	return nil
}
