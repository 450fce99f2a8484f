package bpf

import (
	"math/rand"
	"slices"
	"testing"
)

// tableKeys returns a key pool for the table property test: for every size
// the test's maps reach, keys whose home is one of the last two slots (so
// probe runs wrap around the end) or the first (so a wrapped run ends on
// them), plus a few keys with no particular home.
func tableKeys() []uint64 {
	var keys []uint64
	for size := uint64(minTableSlots); size <= 64; size *= 2 {
		shift := uint(64)
		for s := size; s > 1; s >>= 1 {
			shift--
		}
		found := 0
		for k := uint64(0); found < 6; k++ {
			if home := k * tableHash >> shift; home >= size-2 || home == 0 {
				keys = append(keys, k)
				found++
			}
		}
	}
	for _, k := range []uint64{1 << 8, 2<<8 | 1, 3<<8 | 2, ^uint64(0), 1 << 63} {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// TestHashMapMatchesGoMapOracle drives seeded random update, Lookup, Delete
// and Range calls on a HashMap and a Go map side by side, over keys that
// collide and wrap around the table's end, through growth and up to
// ErrMapFull. It also holds the aliasing contract: a buffer Lookup returned
// sees every later in-place update of its key, stays the key's buffer
// while the key lives, and no two live keys share one.
func TestHashMapMatchesGoMapOracle(t *testing.T) {
	keys := tableKeys()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxEntries := 1 + rng.Intn(len(keys))
		m := NewHashMap("h", 8, maxEntries)
		oracle := map[uint64]uint64{}
		held := map[uint64][]byte{} // buffers Lookup handed out, by live key
		for step := 0; step < 2000; step++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(7) {
			case 0, 1, 2:
				v := rng.Uint64()
				err := m.update(k, U64Key(v))
				_, live := oracle[k]
				switch {
				case !live && len(oracle) >= maxEntries:
					if err != ErrMapFull {
						t.Fatalf("seed %d step %d: insert into a full map: %v, want ErrMapFull", seed, step, err)
					}
				case err != nil:
					t.Fatalf("seed %d step %d: update %#x: %v", seed, step, k, err)
				default:
					oracle[k] = v
				}
			case 3, 4:
				got := m.Lookup(U64Key(k))
				want, live := oracle[k]
				if live != (got != nil) || live && U64(got) != want {
					t.Fatalf("seed %d step %d: lookup %#x = %x, want %d (live %v)", seed, step, k, got, want, live)
				}
				if live {
					if b, ok := held[k]; ok && &b[0] != &got[0] {
						t.Fatalf("seed %d step %d: key %#x moved to another buffer while live", seed, step, k)
					}
					held[k] = got
				}
			case 5:
				_, live := oracle[k]
				if m.Delete(U64Key(k)) != live {
					t.Fatalf("seed %d step %d: delete %#x reported %v, want %v", seed, step, k, !live, live)
				}
				delete(oracle, k)
				delete(held, k)
			case 6:
				seen := map[uint64]int{}
				m.Range(func(key, value []byte) bool {
					seen[U64(key)]++
					if want, ok := oracle[U64(key)]; !ok || U64(value) != want {
						t.Fatalf("seed %d step %d: Range saw %#x=%d, oracle %d (live %v)", seed, step, U64(key), U64(value), want, ok)
					}
					return true
				})
				if len(seen) != len(oracle) {
					t.Fatalf("seed %d step %d: Range visited %d keys, want %d", seed, step, len(seen), len(oracle))
				}
				for k, n := range seen {
					if n != 1 {
						t.Fatalf("seed %d step %d: Range visited %#x %d times", seed, step, k, n)
					}
				}
			}
			if m.t.n != len(oracle) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, m.t.n, len(oracle))
			}
			owner := map[*byte]uint64{}
			for k, b := range held {
				if U64(b) != oracle[k] {
					t.Fatalf("seed %d step %d: held buffer of %#x reads %d, want %d", seed, step, k, U64(b), oracle[k])
				}
				if o, dup := owner[&b[0]]; dup {
					t.Fatalf("seed %d step %d: live keys %#x and %#x share a buffer", seed, step, o, k)
				}
				owner[&b[0]] = k
			}
		}
		// Every live key must still be reachable from its home slot.
		for k, want := range oracle {
			if got := m.Lookup(U64Key(k)); got == nil || U64(got) != want {
				t.Fatalf("seed %d: live key %#x lost", seed, k)
			}
		}
	}
}

// TestTableGrowsOnDemand: a table holds no slots until its first insert and
// doubles only past three quarters full; removing everything keeps the
// slots but finds nothing.
func TestTableGrowsOnDemand(t *testing.T) {
	var tb u64Table
	if tb.slots != nil || tb.lookup(7) != nil || tb.remove(7) != nil {
		t.Fatalf("an empty table must hold no slots and find nothing")
	}
	for k := uint64(0); k < 6; k++ {
		tb.insert(k, make([]byte, 1))
	}
	if len(tb.slots) != minTableSlots {
		t.Fatalf("6 entries in %d slots, want %d", len(tb.slots), minTableSlots)
	}
	tb.insert(6, make([]byte, 1))
	if len(tb.slots) != 2*minTableSlots {
		t.Fatalf("7 entries in %d slots, want %d", len(tb.slots), 2*minTableSlots)
	}
	for k := uint64(0); k < 7; k++ {
		if tb.remove(k) == nil {
			t.Fatalf("key %d lost", k)
		}
	}
	if tb.n != 0 || tb.lookup(3) != nil {
		t.Fatalf("emptied table still finds keys")
	}
	tb.each(func(uint64, []byte) bool {
		t.Fatalf("emptied table still has entries")
		return false
	})
}
