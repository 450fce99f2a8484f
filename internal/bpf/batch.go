package bpf

// Batch is the reusable destination of the batched drain path: a list of
// lent samples. A drain appends each sample's slot in its ring's arena to
// it without copying the bytes, so a drain cycle makes no per-sample
// allocation and copies no sample once the list has grown to the
// working-set size. A lent sample is the ring's: it stays valid until that
// ring's next submission, which may overwrite its slot, so a consumer reads
// what it needs from a batch before anything submits to the rings it
// drained, and never writes to it. Each sample is capped at its length,
// because the next slot's sample follows it in the arena.
type Batch struct {
	samples [][]byte
}

// Reset empties the batch, retaining capacity, and lets go of the samples
// it was lent.
func (b *Batch) Reset() {
	clear(b.samples)
	b.samples = b.samples[:0]
}

// Len returns the number of samples in the batch.
func (b *Batch) Len() int { return len(b.samples) }

// Sample returns the i'th sample: the slice its lender handed over, capped
// at its length. It is valid as long as the lender keeps it, and must not
// be written or retained across cycles.
func (b *Batch) Sample(i int) []byte { return b.samples[i] }

// Append lends one sample to the end of the batch: the batch keeps data
// itself, capped at its length, not a copy.
func (b *Batch) Append(data []byte) {
	b.samples = append(b.samples, data[:len(data):len(data)])
}
