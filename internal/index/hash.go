package index

import "slices"

// Hash is an in-memory hash index: int64 key to TupleID postings. It
// serves the secondary-index indirection lookups of TATP and YCSB-style
// point reads.
type Hash struct {
	m map[int64][]int64
}

// NewHash creates an empty hash index.
func NewHash() *Hash {
	return &Hash{m: make(map[int64][]int64)}
}

// Len returns the number of distinct keys: a key leaves with its last
// TupleID.
func (h *Hash) Len() int { return len(h.m) }

// Insert adds tid under key.
func (h *Hash) Insert(key int64, tid int64) {
	h.m[key] = append(h.m[key], tid)
}

// Delete removes tid from key's TupleIDs, and key once it has none; a
// (key, tid) the index does not hold is left alone. The rest of the key's
// TupleIDs keep their order.
func (h *Hash) Delete(key int64, tid int64) {
	p := h.m[key]
	j := slices.Index(p, tid)
	switch {
	case j < 0:
	case len(p) == 1:
		delete(h.m, key)
	default:
		h.m[key] = slices.Delete(p, j, j+1)
	}
}

// Search returns the TupleIDs under key (nil if absent). The returned
// slice must not be mutated.
func (h *Hash) Search(key int64) []int64 { return h.m[key] }
