package bpf

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestHashMapBasics(t *testing.T) {
	m := NewHashMap("h", 16, 4)
	if m.Name() != "h" || m.KeySize() != 8 || m.ValueSize() != 16 || m.maxEntries != 4 {
		t.Fatalf("metadata: %v %v %v %v", m.Name(), m.KeySize(), m.ValueSize(), m.maxEntries)
	}
	key := U64Key(42)
	if m.Lookup(key) != nil {
		t.Fatalf("lookup on empty map must be nil")
	}
	val := make([]byte, 16)
	PutU64(val, 7)
	if err := m.update(U64(key), val); err != nil {
		t.Fatal(err)
	}
	got := m.Lookup(key)
	if got == nil || U64(got) != 7 {
		t.Fatalf("lookup after update: %v", got)
	}
	// Map value pointers alias storage: in-place writes persist.
	PutU64(got, 99)
	if U64(m.Lookup(key)) != 99 {
		t.Fatalf("value mutation must persist (BPF map-value-pointer semantics)")
	}
	if !m.Delete(key) {
		t.Fatalf("delete must report presence")
	}
	if m.Delete(key) {
		t.Fatalf("double delete must report absence")
	}
}

func TestHashMapSizeChecks(t *testing.T) {
	m := NewHashMap("h", 8, 4)
	if m.Lookup([]byte{1, 2}) != nil {
		t.Fatalf("bad key size lookup must be nil")
	}
	if m.Delete([]byte{1}) {
		t.Fatalf("bad key size delete must be false")
	}
}

func TestHashMapCapacity(t *testing.T) {
	m := NewHashMap("h", 8, 2)
	v := make([]byte, 8)
	if err := m.update(1, v); err != nil {
		t.Fatal(err)
	}
	if err := m.update(2, v); err != nil {
		t.Fatal(err)
	}
	if err := m.update(3, v); err != ErrMapFull {
		t.Fatalf("over capacity: %v", err)
	}
	// Replacing an existing key is allowed at capacity.
	if err := m.update(2, v); err != nil {
		t.Fatalf("replace at capacity: %v", err)
	}
	if m.t.n != 2 {
		t.Fatalf("len: %d", m.t.n)
	}
}

func TestHashMapUpdateCopies(t *testing.T) {
	m := NewHashMap("h", 8, 4)
	v := make([]byte, 8)
	PutU64(v, 5)
	_ = m.update(1, v)
	PutU64(v, 6) // mutate caller buffer after update
	if U64(m.Lookup(U64Key(1))) != 5 {
		t.Fatalf("update must copy the value")
	}
}

// A deleted entry's buffer backs the next insert (the preallocated-htab
// rule in HashMap's type comment): the new value must be exactly the
// inserted bytes, and churn at a fixed occupancy must not allocate.
func TestHashMapRecyclesDeletedBuffers(t *testing.T) {
	m := NewHashMap("h", 16, 3)
	old := bytes.Repeat([]byte{0xff}, 16)
	if err := m.update(1, old); err != nil {
		t.Fatal(err)
	}
	if err := m.update(2, old); err != nil {
		t.Fatal(err)
	}
	stale := m.Lookup(U64Key(1))
	if !m.Delete(U64Key(1)) || m.t.n != 1 {
		t.Fatalf("delete: len %d", m.t.n)
	}
	fresh := []byte{1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0}
	if err := m.update(7, fresh); err != nil {
		t.Fatal(err)
	}
	got := m.Lookup(U64Key(7))
	if &got[0] != &stale[0] {
		t.Fatalf("insert after delete must reuse the deleted entry's buffer")
	}
	if !bytes.Equal(got, fresh) {
		t.Fatalf("recycled value = %x, want %x", got, fresh)
	}
	if m.Lookup(U64Key(1)) != nil || !bytes.Equal(m.Lookup(U64Key(2)), old) {
		t.Fatalf("neighbours disturbed: 1=%x 2=%x", m.Lookup(U64Key(1)), m.Lookup(U64Key(2)))
	}

	// Range hands out keys as their 8 little-endian bytes.
	seen := map[uint64]bool{}
	m.Range(func(key, value []byte) bool {
		if len(key) != 8 || len(value) != 16 {
			t.Fatalf("Range sizes: key %d value %d", len(key), len(value))
		}
		seen[U64(key)] = true
		return true
	})
	if len(seen) != 2 || !seen[2] || !seen[7] {
		t.Fatalf("Range keys: %v", seen)
	}

	// Capacity counts live entries only, whatever sits on the free list.
	if err := m.update(8, fresh); err != nil {
		t.Fatal(err)
	}
	if err := m.update(9, fresh); err != ErrMapFull || m.t.n != 3 {
		t.Fatalf("over capacity after churn: %v, len %d", err, m.t.n)
	}

	key := U64Key(8)
	if n := testing.AllocsPerRun(100, func() {
		m.Delete(key)
		if err := m.update(U64(key), fresh); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("delete/insert churn at fixed occupancy allocates %v per cycle", n)
	}

	// Emptied: nothing present.
	for _, k := range []uint64{2, 7, 8} {
		if !m.Delete(U64Key(k)) {
			t.Fatalf("delete %d", k)
		}
	}
	if m.t.n != 0 || m.Lookup(key) != nil || m.Delete(key) {
		t.Fatalf("empty map: len %d", m.t.n)
	}
}

func TestArrayMap(t *testing.T) {
	a := NewArrayMap("a", 8, 3)
	if a.Name() != "a" || a.KeySize() != 8 || a.ValueSize() != 8 {
		t.Fatalf("metadata")
	}
	if a.Lookup(U64Key(3)) != nil {
		t.Fatalf("out-of-range index must be nil")
	}
	slot := a.Lookup(U64Key(1))
	if slot == nil || U64(slot) != 0 {
		t.Fatalf("slots must exist zeroed")
	}
	// The slot aliases storage: a write through it persists.
	PutU64(slot, 11)
	if U64(a.Lookup(U64Key(1))) != 11 || U64(a.Lookup(U64Key(2))) != 0 {
		t.Fatalf("write through the slot")
	}
	if a.Lookup([]byte{1}) != nil {
		t.Fatalf("bad key size")
	}
}

func TestPerTaskMap(t *testing.T) {
	p := NewPerTaskMap("p", 16)
	slot := p.Lookup(U64Key(7))
	if slot == nil || len(slot) != 16 {
		t.Fatalf("per-task slot must auto-create")
	}
	PutU64(slot, 3)
	if U64(p.Lookup(U64Key(7))) != 3 {
		t.Fatalf("slot must persist per PID")
	}
	if U64(p.Lookup(U64Key(8))) != 0 {
		t.Fatalf("other PID must have its own slot")
	}
	if p.t.n != 2 {
		t.Fatalf("len: %d", p.t.n)
	}
	if !p.Delete(U64Key(7)) || p.Delete(U64Key(7)) {
		t.Fatalf("delete semantics")
	}
	if p.Lookup([]byte{1}) != nil || p.Delete([]byte{1}) {
		t.Fatalf("bad key size")
	}
	if p.KeySize() != 8 || p.ValueSize() != 16 || p.Name() != "p" {
		t.Fatalf("metadata")
	}
}

// The TestPerfRingBuffer* tests keep the name of the single shared ring
// they were written against so their ids stay stable; that type is gone and
// each now exercises its replacement, a PerCPURing with one CPU.

func TestPerfRingBufferOrder(t *testing.T) {
	r := NewPerCPURing("rb", 1, 4)
	for i := byte(0); i < 3; i++ {
		r.Submit([]byte{i})
	}
	var got Batch
	if n := r.DrainBatch(0, &got, 0); n != 3 {
		t.Fatalf("drain count: %d", n)
	}
	for i := 0; i < got.Len(); i++ {
		if got.Sample(i)[0] != byte(i) {
			t.Fatalf("FIFO order violated: sample %d = %v", i, got.Sample(i))
		}
	}
	if r.Stats().Pending != 0 {
		t.Fatalf("drain must empty the ring")
	}
}

func TestPerfRingBufferOverwrite(t *testing.T) {
	r := NewPerCPURing("rb", 1, 2)
	for i := byte(0); i < 5; i++ {
		r.Submit([]byte{i})
	}
	if st := r.Stats(); st.Dropped != 3 || st.Submitted != 5 {
		t.Fatalf("dropped %d want 3, submitted %d want 5", st.Dropped, st.Submitted)
	}
	var got Batch
	if n := r.DrainBatch(0, &got, 0); n != 2 || got.Sample(0)[0] != 3 || got.Sample(1)[0] != 4 {
		t.Fatalf("overwrite must keep newest: drained %d", n)
	}
}

func TestPerfRingBufferDrainMax(t *testing.T) {
	r := NewPerCPURing("rb", 1, 8)
	for i := byte(0); i < 6; i++ {
		r.Submit([]byte{i})
	}
	var first, rest Batch
	if n := r.DrainBatch(0, &first, 2); n != 2 || first.Sample(0)[0] != 0 || first.Sample(1)[0] != 1 {
		t.Fatalf("bounded drain: %d samples", n)
	}
	if n := r.DrainBatch(0, &rest, 0); n != 4 || rest.Sample(0)[0] != 2 {
		t.Fatalf("remainder: %d samples", n)
	}
}

func TestPerfRingBufferSubmitCopies(t *testing.T) {
	r := NewPerCPURing("rb", 1, 2)
	buf := []byte{1, 2, 3}
	r.Submit(buf)
	buf[0] = 9
	var got Batch
	r.DrainBatch(0, &got, 0)
	if !bytes.Equal(got.Sample(0), []byte{1, 2, 3}) {
		t.Fatalf("Submit must copy: %v", got.Sample(0))
	}
}

func TestPerfRingBufferReset(t *testing.T) {
	r := NewPerCPURing("rb", 1, 2)
	r.Submit([]byte{1})
	r.Submit([]byte{2})
	r.Submit([]byte{3})
	r.Reset()
	if st := r.Stats(); r.Stats().Pending != 0 || st.Submitted != 0 || st.Dropped != 0 {
		t.Fatalf("reset must clear everything")
	}
}

// A ring is a keyless Map: perf_event_output is the only helper that
// takes it, and samples are variable-length.
func TestPerfRingBufferMapAdapter(t *testing.T) {
	var m Map = NewPerCPURing("rb", 1, 2)
	if m.KeySize() != 0 || m.ValueSize() != 0 || m.Name() != "rb" {
		t.Fatalf("metadata")
	}
}

func TestPerfRingBufferMinCapacity(t *testing.T) {
	r := NewPerCPURing("rb", 1, 0)
	r.Submit([]byte{1})
	if r.Stats().Pending != 1 {
		t.Fatalf("capacity must clamp to >=1")
	}
}

// Property: a ring buffer drained after N submissions holds exactly
// min(N, capacity) samples and they are the newest N in order.
func TestPerfRingBufferProperty(t *testing.T) {
	f := func(n uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		r := NewPerCPURing("rb", 1, capacity)
		for i := 0; i < int(n); i++ {
			r.Submit([]byte{byte(i)})
		}
		var got Batch
		r.DrainBatch(0, &got, 0)
		want := int(n)
		if want > capacity {
			want = capacity
		}
		if got.Len() != want {
			return false
		}
		for i := 0; i < want; i++ {
			if got.Sample(i)[0] != byte(int(n)-want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: hash map behaves like a Go map for random operations.
func TestHashMapModelProperty(t *testing.T) {
	type op struct {
		Kind  uint8
		Key   uint8
		Value uint64
	}
	f := func(ops []op) bool {
		m := NewHashMap("h", 8, 1<<20)
		model := map[uint64]uint64{}
		for _, o := range ops {
			k := U64Key(uint64(o.Key))
			switch o.Kind % 3 {
			case 0:
				v := make([]byte, 8)
				PutU64(v, o.Value)
				_ = m.update(U64(k), v)
				model[uint64(o.Key)] = o.Value
			case 1:
				got := m.Lookup(k)
				want, ok := model[uint64(o.Key)]
				if ok != (got != nil) {
					return false
				}
				if ok && U64(got) != want {
					return false
				}
			case 2:
				_, ok := model[uint64(o.Key)]
				if m.Delete(k) != ok {
					return false
				}
				delete(model, uint64(o.Key))
			}
		}
		return m.t.n == len(model)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
