package bpf

// u64Table is the open-addressed hash table under HashMap and PerTaskMap:
// uint64 keys, value buffers owned by the map above it, linear probing and
// backward-shift delete, so there are no tombstones and a probe sequence
// ends at the first empty slot. A nil val marks an empty slot. The table
// starts with no slots and doubles only when an insert would load it past
// three quarters, the way a per-CPU ring grows only to what it buffers.
//
// Slot order — what each walks — depends only on the sequence of inserts
// and removes, so iteration is deterministic where a Go map's is not (and a
// Go map that empties reseeds its hash on the next delete, which a marker
// hit paid for on every FEATURES).
type u64Table struct {
	slots []tableSlot
	n     int  // live entries
	shift uint // 64 - log2(len(slots)): the home slot is the hash's top bits
}

type tableSlot struct {
	key uint64
	val []byte
}

// tableHash is Fibonacci hashing's multiplier (2^64 / φ): Collector keys
// are generations shifted left by 8 plus a depth, which the multiply
// spreads across the top bits the home slot is taken from.
const tableHash = 0x9e3779b97f4a7c15

// minTableSlots is the table's size on its first insert.
const minTableSlots = 8

// lookup returns k's value, or nil. It must stay small enough to inline
// into the helper bodies the JIT binds to a concrete map (scripts/check.sh
// lint's maptable_inlined step).
func (t *u64Table) lookup(k uint64) []byte {
	if t.n == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := k * tableHash >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.val == nil || s.key == k {
			return s.val
		}
	}
}

// insert adds k, which must be absent, with the non-nil value v.
func (t *u64Table) insert(k uint64, v []byte) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := k * tableHash >> t.shift
	for t.slots[i].val != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = tableSlot{key: k, val: v}
	t.n++
}

// grow doubles the table (or makes its first one) and reinserts every
// entry.
func (t *u64Table) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < minTableSlots {
		size = minTableSlots
	}
	t.slots = make([]tableSlot, size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.n = 0
	for _, s := range old {
		if s.val != nil {
			t.insert(s.key, s.val)
		}
	}
}

// remove deletes k and returns its value, or nil if k is absent. The
// entries after the freed slot in its probe run shift back over it unless
// that would move one before its home slot, so every remaining key stays
// reachable from its home without tombstones.
func (t *u64Table) remove(k uint64) []byte {
	if t.n == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	i := k * tableHash >> t.shift
	for {
		s := &t.slots[i]
		if s.val == nil {
			return nil
		}
		if s.key == k {
			break
		}
		i = (i + 1) & mask
	}
	v := t.slots[i].val
	for j := (i + 1) & mask; t.slots[j].val != nil; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if its home is not
		// cyclically in (i, j].
		if home := t.slots[j].key * tableHash >> t.shift; (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = tableSlot{}
	t.n--
	return v
}

// each calls fn on every entry in slot order until fn returns false.
func (t *u64Table) each(fn func(k uint64, v []byte) bool) {
	for _, s := range t.slots {
		if s.val != nil && !fn(s.key, s.val) {
			return
		}
	}
}
