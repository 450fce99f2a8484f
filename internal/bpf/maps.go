package bpf

import (
	"encoding/binary"
	"errors"
)

// Map errors.
var (
	ErrMapFull    = errors.New("bpf: map full")
	ErrBadKeySize = errors.New("bpf: bad key size")
	ErrBadValSize = errors.New("bpf: bad value size")
)

// Map is the interface all BPF map types implement. Values returned by
// Lookup alias the stored bytes, so in-place mutation through a map-value
// pointer persists — the same semantics Collector programs rely on to
// accumulate metrics across marker events (paper §3.2).
type Map interface {
	Name() string
	KeySize() int
	ValueSize() int
	MaxEntries() int
	Len() int
	// Lookup returns the stored value bytes or nil if absent.
	Lookup(key []byte) []byte
	// Update inserts or replaces the value for key.
	Update(key, value []byte) error
	// Delete removes key, reporting whether it was present.
	Delete(key []byte) bool
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
// map TScout's codegen and the fuzz generator build is). Like the kernel's
// preallocated htab it never gives a value buffer back to the allocator: a
// deleted entry's buffer goes on a free list and backs a later insert, so a
// map that churns at a steady occupancy — an OU entry pushed at BEGIN and
// deleted at FEATURES, every invocation — allocates nothing.
//
// That makes the aliasing rule the kernel's too: a value returned by Lookup
// (or seen by Range) is valid until its key is deleted; after that the same
// bytes may hold the value of a different, later key. A program that still
// needs the value must copy it out before it deletes the key.
type HashMap struct {
	name       string
	valueSize  int
	maxEntries int

	m map[uint64][]byte
	// free holds the buffers of deleted entries; it never exceeds the peak
	// number of live entries.
	free [][]byte
}

// NewHashMap creates a hash map with 8-byte keys and a fixed value size.
func NewHashMap(name string, valueSize, maxEntries int) *HashMap {
	return &HashMap{
		name: name, valueSize: valueSize,
		maxEntries: maxEntries, m: make(map[uint64][]byte),
	}
}

// Name returns the map name.
func (h *HashMap) Name() string { return h.name }

// KeySize returns 8.
func (h *HashMap) KeySize() int { return 8 }

// ValueSize returns the fixed value size in bytes.
func (h *HashMap) ValueSize() int { return h.valueSize }

// MaxEntries returns the capacity.
func (h *HashMap) MaxEntries() int { return h.maxEntries }

// Len returns the current entry count.
func (h *HashMap) Len() int { return len(h.m) }

// Lookup returns the value stored for key (aliasing the internal buffer,
// see the type comment), or nil if absent or the key is the wrong size.
func (h *HashMap) Lookup(key []byte) []byte {
	if len(key) != 8 {
		return nil
	}
	return h.m[U64(key)]
}

// Update inserts or replaces the value for key (the value is copied). An
// existing slot is overwritten in place — consistent with the aliasing
// Lookup contract, a map-value pointer observes the update — and a new key
// takes a recycled buffer when one is free, overwriting all of it.
func (h *HashMap) Update(key, value []byte) error {
	if len(key) != 8 {
		return ErrBadKeySize
	}
	if len(value) != h.valueSize {
		return ErrBadValSize
	}
	k := U64(key)
	dst, ok := h.m[k]
	if !ok {
		if len(h.m) >= h.maxEntries {
			return ErrMapFull
		}
		if n := len(h.free); n > 0 {
			dst, h.free = h.free[n-1], h.free[:n-1]
		} else {
			dst = make([]byte, h.valueSize)
		}
		h.m[k] = dst
	}
	copy(dst, value)
	return nil
}

// Range calls fn for every entry with a copy of the key (its 8
// little-endian bytes) and the live value buffer; returning false
// stops the walk. It exists for user-space sweeps over kernel-written state
// — the Collector reaper scans in-flight OU entries for dead task
// generations. The iteration order is unspecified; callers needing
// determinism must sort what they collect.
func (h *HashMap) Range(fn func(key, value []byte) bool) {
	for k, v := range h.m {
		if !fn(U64Key(k), v) {
			return
		}
	}
}

// Delete removes key; its value buffer becomes reusable by a later insert.
func (h *HashMap) Delete(key []byte) bool {
	if len(key) != 8 {
		return false
	}
	k := U64(key)
	v, ok := h.m[k]
	if ok {
		delete(h.m, k)
		h.free = append(h.free, v)
	}
	return ok
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

// MaxEntries returns the slot count.
func (a *ArrayMap) MaxEntries() int { return len(a.values) }

// Len returns the slot count (array slots always exist).
func (a *ArrayMap) Len() int { return len(a.values) }

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

// Update copies value into the indexed slot.
func (a *ArrayMap) Update(key, value []byte) error {
	if len(value) != a.valueSize {
		return ErrBadValSize
	}
	dst := a.Lookup(key)
	if dst == nil {
		return ErrBadKeySize
	}
	copy(dst, value)
	return nil
}

// Delete zeroes the indexed slot (array entries cannot be removed).
func (a *ArrayMap) Delete(key []byte) bool {
	dst := a.Lookup(key)
	if dst == nil {
		return false
	}
	for i := range dst {
		dst[i] = 0
	}
	return true
}

// PerTaskMap stores one fixed-size value per task PID; it stands in for
// BPF per-CPU / per-task storage used to snapshot probe results at BEGIN
// markers without cross-thread synchronization (the "no back pressure"
// property, paper §3).
type PerTaskMap struct {
	name      string
	valueSize int
	m         map[uint64][]byte
}

// NewPerTaskMap creates an empty per-task map.
func NewPerTaskMap(name string, valueSize int) *PerTaskMap {
	return &PerTaskMap{name: name, valueSize: valueSize, m: make(map[uint64][]byte)}
}

// Name returns the map name.
func (p *PerTaskMap) Name() string { return p.name }

// KeySize returns 8 (the PID).
func (p *PerTaskMap) KeySize() int { return 8 }

// ValueSize returns the per-task slot size.
func (p *PerTaskMap) ValueSize() int { return p.valueSize }

// MaxEntries is unbounded for per-task storage; it returns 0.
func (p *PerTaskMap) MaxEntries() int { return 0 }

// Len returns the number of tasks with a slot.
func (p *PerTaskMap) Len() int { return len(p.m) }

// Lookup returns the slot for the PID in key, creating a zeroed slot on
// first access (per-CPU semantics: the slot always exists).
func (p *PerTaskMap) Lookup(key []byte) []byte {
	if len(key) != 8 {
		return nil
	}
	pid := U64(key)
	v, ok := p.m[pid]
	if !ok {
		v = make([]byte, p.valueSize)
		p.m[pid] = v
	}
	return v
}

// Update copies value into the PID's slot.
func (p *PerTaskMap) Update(key, value []byte) error {
	if len(value) != p.valueSize {
		return ErrBadValSize
	}
	dst := p.Lookup(key)
	if dst == nil {
		return ErrBadKeySize
	}
	copy(dst, value)
	return nil
}

// Range calls fn for every slot (keys are the slot ids, values the live
// buffers); returning false stops the walk. Like HashMap.Range it serves
// user-space maintenance sweeps.
func (p *PerTaskMap) Range(fn func(key uint64, value []byte) bool) {
	for k, v := range p.m {
		if !fn(k, v) {
			return
		}
	}
}

// Delete removes the PID's slot.
func (p *PerTaskMap) Delete(key []byte) bool {
	if len(key) != 8 {
		return false
	}
	pid := U64(key)
	if _, ok := p.m[pid]; !ok {
		return false
	}
	delete(p.m, pid)
	return true
}
