package bpf

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
)

// Map errors.
var (
	ErrMapFull    = errors.New("bpf: map full")
	ErrStackEmpty = errors.New("bpf: stack map empty")
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

	mu sync.Mutex
	m  map[uint64][]byte
	// free holds the buffers of deleted entries; it never exceeds the peak
	// number of live entries.
	free [][]byte
	// count mirrors len(m), maintained under mu but readable lock-free:
	// Collector programs issue unconditional cleanup deletes and probe
	// lookups against maps that are empty in steady state, and a count of
	// zero at the atomic load is a valid linearization of "not present" —
	// those calls skip the lock entirely.
	count atomic.Int64
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
func (h *HashMap) Len() int {
	return int(h.count.Load())
}

// Lookup returns the value stored for key (aliasing the internal buffer,
// see the type comment), or nil if absent or the key is the wrong size.
func (h *HashMap) Lookup(key []byte) []byte {
	if len(key) != 8 || h.count.Load() == 0 {
		return nil
	}
	h.mu.Lock()
	v := h.m[U64(key)]
	h.mu.Unlock()
	return v
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
	h.mu.Lock()
	defer h.mu.Unlock()
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
		h.count.Store(int64(len(h.m)))
	}
	copy(dst, value)
	return nil
}

// Range calls fn for every entry under the map lock with a copy of the key
// (its 8 little-endian bytes) and the live value buffer; returning false
// stops the walk. It exists for user-space sweeps over kernel-written state
// — the Collector reaper scans in-flight OU entries for dead task
// generations. The iteration order is unspecified; callers needing
// determinism must sort what they collect.
func (h *HashMap) Range(fn func(key, value []byte) bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for k, v := range h.m {
		if !fn(U64Key(k), v) {
			return
		}
	}
}

// Delete removes key; its value buffer becomes reusable by a later insert.
func (h *HashMap) Delete(key []byte) bool {
	if len(key) != 8 || h.count.Load() == 0 {
		return false
	}
	k := U64(key)
	h.mu.Lock()
	v, ok := h.m[k]
	if ok {
		delete(h.m, k)
		h.free = append(h.free, v)
		h.count.Store(int64(len(h.m)))
	}
	h.mu.Unlock()
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

// StackMap is a LIFO stack of fixed-size values (BPF_MAP_TYPE_STACK). The
// Collector uses one per task to handle recursive operators: BEGIN pushes an
// OU invocation entry, FEATURES pops and type-checks it (paper §5.2).
//
// Elements live in one flat backing array (slot i at [i*valueSize,
// (i+1)*valueSize)): pushes past the high-water mark grow it once and then
// reuse the capacity forever, so the marker hot path allocates nothing.
// Pop and Lookup return views into the backing — a popped view is only
// valid until the next Push, which is why both in-kernel helpers copy the
// element out immediately.
type StackMap struct {
	name       string
	valueSize  int
	maxEntries int

	mu    sync.Mutex
	data  []byte
	depth int
}

// NewStackMap creates a stack map holding at most maxEntries values.
func NewStackMap(name string, valueSize, maxEntries int) *StackMap {
	return &StackMap{name: name, valueSize: valueSize, maxEntries: maxEntries}
}

// Name returns the map name.
func (s *StackMap) Name() string { return s.name }

// KeySize returns 0: stacks are keyless.
func (s *StackMap) KeySize() int { return 0 }

// ValueSize returns the element size in bytes.
func (s *StackMap) ValueSize() int { return s.valueSize }

// MaxEntries returns the capacity.
func (s *StackMap) MaxEntries() int { return s.maxEntries }

// Len returns the current depth.
func (s *StackMap) Len() int {
	s.mu.Lock()
	n := s.depth
	s.mu.Unlock()
	return n
}

// Lookup returns the top of the stack without popping (peek), or nil when
// empty. The key is ignored.
func (s *StackMap) Lookup(key []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.depth == 0 {
		return nil
	}
	return s.data[(s.depth-1)*s.valueSize : s.depth*s.valueSize]
}

// Update pushes a value (the key is ignored).
func (s *StackMap) Update(key, value []byte) error {
	return s.Push(value)
}

// Delete pops and discards the top element.
func (s *StackMap) Delete(key []byte) bool {
	_, err := s.Pop()
	return err == nil
}

// Push copies value onto the stack.
func (s *StackMap) Push(value []byte) error {
	if len(value) != s.valueSize {
		return ErrBadValSize
	}
	s.mu.Lock()
	if s.depth >= s.maxEntries {
		s.mu.Unlock()
		return ErrMapFull
	}
	s.data = append(s.data[:s.depth*s.valueSize], value...)
	s.depth++
	s.mu.Unlock()
	return nil
}

// Pop removes and returns the top element. The returned view is valid
// until the next Push reuses the slot; callers that retain it must copy.
func (s *StackMap) Pop() ([]byte, error) {
	s.mu.Lock()
	if s.depth == 0 {
		s.mu.Unlock()
		return nil, ErrStackEmpty
	}
	s.depth--
	v := s.data[s.depth*s.valueSize : (s.depth+1)*s.valueSize : (s.depth+1)*s.valueSize]
	s.mu.Unlock()
	return v, nil
}

// Clear empties the stack (the Collector's state-machine reset, §5.1).
func (s *StackMap) Clear() {
	s.mu.Lock()
	s.depth = 0
	s.mu.Unlock()
}

// PerTaskMap stores one fixed-size value per task PID; it stands in for
// BPF per-CPU / per-task storage used to snapshot probe results at BEGIN
// markers without cross-thread synchronization (the "no back pressure"
// property, paper §3).
//
// The PID→slot index is copy-on-write: the hot path (every marker hit
// looks up its task's slot) reads an immutable snapshot with no lock, and
// only the first access by a new PID — or a Delete — takes the mutex to
// publish a rebuilt snapshot. Slot buffers are shared across snapshots,
// so in-place mutation through a looked-up slot persists as before.
type PerTaskMap struct {
	name      string
	valueSize int

	mu   sync.Mutex // serializes snapshot rebuilds
	snap atomic.Pointer[map[uint64][]byte]
}

// NewPerTaskMap creates an empty per-task map.
func NewPerTaskMap(name string, valueSize int) *PerTaskMap {
	p := &PerTaskMap{name: name, valueSize: valueSize}
	m := make(map[uint64][]byte)
	p.snap.Store(&m)
	return p
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
func (p *PerTaskMap) Len() int {
	return len(*p.snap.Load())
}

// Lookup returns the slot for the PID in key, creating a zeroed slot on
// first access (per-CPU semantics: the slot always exists).
func (p *PerTaskMap) Lookup(key []byte) []byte {
	if len(key) != 8 {
		return nil
	}
	pid := U64(key)
	if v, ok := (*p.snap.Load())[pid]; ok {
		return v
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := *p.snap.Load() // re-check: another writer may have added it
	if v, ok := cur[pid]; ok {
		return v
	}
	next := make(map[uint64][]byte, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	v := make([]byte, p.valueSize)
	next[pid] = v
	p.snap.Store(&next)
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

// Range calls fn for every slot in the current snapshot (keys are the
// slot ids, values the live buffers); returning false stops the walk.
// Like HashMap.Range it serves user-space maintenance sweeps; fn sees
// slots that existed when the walk started.
func (p *PerTaskMap) Range(fn func(key uint64, value []byte) bool) {
	for k, v := range *p.snap.Load() {
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
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := *p.snap.Load()
	if _, ok := cur[pid]; !ok {
		return false
	}
	next := make(map[uint64][]byte, len(cur))
	for k, v := range cur {
		if k != pid {
			next[k] = v
		}
	}
	p.snap.Store(&next)
	return true
}
