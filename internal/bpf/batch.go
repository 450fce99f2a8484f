package bpf

// Batch is the reusable destination of the batched drain path: drained
// samples are copied back-to-back into one contiguous buffer with an
// offsets index, so a drain cycle makes zero per-sample allocations once
// the buffer has grown to the working-set size. Sample slices returned by
// Sample alias the buffer and are valid only until the next Reset.
type Batch struct {
	buf []byte
	end []int // end[i] is the exclusive end offset of sample i in buf
}

// Reset empties the batch, retaining capacity.
func (b *Batch) Reset() {
	b.buf = b.buf[:0]
	b.end = b.end[:0]
}

// Len returns the number of samples in the batch.
func (b *Batch) Len() int { return len(b.end) }

// Sample returns the i'th sample. The slice aliases the batch's buffer:
// it is valid until the next Reset and must not be retained across cycles.
func (b *Batch) Sample(i int) []byte {
	start := 0
	if i > 0 {
		start = b.end[i-1]
	}
	return b.buf[start:b.end[i]:b.end[i]]
}

// Append copies one sample onto the end of the batch.
func (b *Batch) Append(data []byte) {
	b.buf = append(b.buf, data...)
	b.end = append(b.end, len(b.buf))
}
