package bpf

import (
	"encoding/binary"
	"errors"
)

// ErrMapFull is a hash-map insert past the map's capacity.
var ErrMapFull = errors.New("bpf: map full")

// Map is what the verifier and the compiler read of a program's
// map: its name and its key and value sizes. A program reaches a map's
// contents only through a callFrame (compile.go), bound at compile time to
// the concrete type the verifier admitted for the helper. A map-value
// pointer aliases the stored bytes, so in-place mutation through it
// persists — the same semantics Collector programs rely on to accumulate
// metrics across marker events (paper §3.2).
type Map interface {
	Name() string
	KeySize() int
	ValueSize() int
}

// U64Key encodes a uint64 as a little-endian 8-byte map key.
func U64Key(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// U64 reads a little-endian uint64 from the front of b.
func U64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// PutU64 writes v into the first 8 bytes of b.
func PutU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// HashMap is the general-purpose BPF hash map, keyed on 8-byte keys (every
// map TScout's codegen and the fuzz generator build is), on a u64Table.
// Like the kernel's preallocated htab it never gives a value buffer back to
// the allocator: a deleted entry's buffer goes on a free list and backs a
// later insert, so a map that churns at a steady occupancy — an OU entry
// pushed at BEGIN and deleted at FEATURES, every invocation — allocates
// nothing.
//
// That makes the aliasing rule the kernel's too: a value a lookup returned
// (or Range showed) is valid until its key is deleted; after that the same
// bytes may hold the value of a different, later key. A program that still
// needs the value must copy it out before it deletes the key.
type HashMap struct {
	name       string
	valueSize  int
	maxEntries int

	t u64Table
	// free holds the buffers of deleted entries; it never exceeds the peak
	// number of live entries.
	free [][]byte
}

// NewHashMap creates a hash map with 8-byte keys and a fixed value size.
// It holds no table until its first insert.
func NewHashMap(name string, valueSize, maxEntries int) *HashMap {
	return &HashMap{name: name, valueSize: valueSize, maxEntries: maxEntries}
}

// Name returns the map name.
func (h *HashMap) Name() string { return h.name }

// KeySize returns 8.
func (h *HashMap) KeySize() int { return 8 }

// ValueSize returns the fixed value size in bytes.
func (h *HashMap) ValueSize() int { return h.valueSize }

// update inserts or replaces the value for k (the value, of the map's
// value size, is copied). An existing slot is overwritten in place —
// consistent with the aliasing rule, a map-value pointer observes the
// update — and a new key takes a recycled buffer when one is free,
// overwriting all of it.
func (h *HashMap) update(k uint64, value []byte) error {
	dst := h.t.lookup(k)
	if dst == nil {
		if h.t.n >= h.maxEntries {
			return ErrMapFull
		}
		if n := len(h.free); n > 0 {
			dst, h.free = h.free[n-1], h.free[:n-1]
		} else {
			dst = make([]byte, h.valueSize)
		}
		h.t.insert(k, dst)
	}
	copy(dst, value)
	return nil
}

// Range calls fn for every entry with a copy of the key (its 8
// little-endian bytes) and the live value buffer; returning false stops
// the walk, and fn must not update or delete entries. It exists for
// user-space sweeps over kernel-written state — the Collector reaper scans
// in-flight OU entries for dead task generations. The order is the table's
// slot order: a deterministic function of the map's operation sequence,
// and not the key order.
func (h *HashMap) Range(fn func(key, value []byte) bool) {
	h.t.each(func(k uint64, v []byte) bool { return fn(U64Key(k), v) })
}

// Delete removes key; its value buffer becomes reusable by a later insert.
func (h *HashMap) Delete(key []byte) bool {
	if len(key) != 8 {
		return false
	}
	return h.delete(U64(key))
}

// delete is Delete on a decoded key.
func (h *HashMap) delete(k uint64) bool {
	v := h.t.remove(k)
	if v == nil {
		return false
	}
	h.free = append(h.free, v)
	return true
}

// ArrayMap is a fixed-size array of values indexed by a uint64 key. All
// slots exist from creation (like BPF_MAP_TYPE_ARRAY).
type ArrayMap struct {
	name      string
	valueSize int
	values    [][]byte
}

// NewArrayMap creates an array map with n preallocated zeroed slots.
func NewArrayMap(name string, valueSize, n int) *ArrayMap {
	vals := make([][]byte, n)
	for i := range vals {
		vals[i] = make([]byte, valueSize)
	}
	return &ArrayMap{name: name, valueSize: valueSize, values: vals}
}

// Name returns the map name.
func (a *ArrayMap) Name() string { return a.name }

// KeySize returns 8 (uint64 index).
func (a *ArrayMap) KeySize() int { return 8 }

// ValueSize returns the slot size in bytes.
func (a *ArrayMap) ValueSize() int { return a.valueSize }

// Lookup returns the slot for the index encoded in key, or nil if out of
// range.
func (a *ArrayMap) Lookup(key []byte) []byte {
	if len(key) != 8 {
		return nil
	}
	i := U64(key)
	if i >= uint64(len(a.values)) {
		return nil
	}
	return a.values[i]
}

// PerTaskMap stores one fixed-size value per task, keyed by an 8-byte id
// on a u64Table; it stands in for BPF per-task storage used to snapshot
// probe results at BEGIN markers without cross-thread synchronization (the
// "no back pressure" property, paper §3). TScout's Collector keys it by
// task generation, not pid, so a recycled pid starts from a fresh slot.
type PerTaskMap struct {
	name      string
	valueSize int
	t         u64Table
}

// NewPerTaskMap creates an empty per-task map.
func NewPerTaskMap(name string, valueSize int) *PerTaskMap {
	return &PerTaskMap{name: name, valueSize: valueSize}
}

// Name returns the map name.
func (p *PerTaskMap) Name() string { return p.name }

// KeySize returns 8 (the task id the caller keys by).
func (p *PerTaskMap) KeySize() int { return 8 }

// ValueSize returns the per-task slot size.
func (p *PerTaskMap) ValueSize() int { return p.valueSize }

// create inserts a zeroed slot for k: a lookup of a task id with no slot
// yet creates one (per-CPU semantics: the slot always exists). It stays
// out of line so the lookup that calls it keeps its table probe inlined.
func (p *PerTaskMap) create(k uint64) []byte {
	v := make([]byte, p.valueSize)
	p.t.insert(k, v)
	return v
}

// Range calls fn for every slot (keys are the task ids, values the live
// buffers); returning false stops the walk, and fn must not create or
// delete slots. Like HashMap.Range it serves user-space maintenance sweeps
// and visits slots in the table's deterministic slot order.
func (p *PerTaskMap) Range(fn func(key uint64, value []byte) bool) {
	p.t.each(fn)
}

// Delete removes the task's slot.
func (p *PerTaskMap) Delete(key []byte) bool {
	if len(key) != 8 {
		return false
	}
	return p.t.remove(U64(key)) != nil
}
