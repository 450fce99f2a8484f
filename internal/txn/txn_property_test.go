package txn

import (
	"math/rand"
	"testing"

	"tscout/internal/storage"
)

// TestSnapshotIsolationModelProperty runs randomized interleaved
// transactions against a sequential model: every transaction's reads must
// reflect exactly the committed state at its snapshot plus its own writes,
// and aborted transactions must leave no trace.
func TestSnapshotIsolationModelProperty(t *testing.T) {
	const keys = 8
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		m := NewManager()
		tbl := storage.NewTable("t", storage.MustSchema(
			storage.Column{Name: "k", Kind: storage.KindInt},
			storage.Column{Name: "v", Kind: storage.KindInt},
		))

		// Seed all keys via a loader transaction.
		tids := make([]storage.TupleID, keys)
		committed := make(map[int]int64) // model: key -> committed value
		loader := m.Begin()
		for k := 0; k < keys; k++ {
			id, err := loader.Insert(tbl, storage.Row{storage.NewInt(int64(k)), storage.NewInt(0)})
			if err != nil {
				t.Fatal(err)
			}
			tids[k] = id
			committed[k] = 0
		}
		if _, err := loader.Commit(); err != nil {
			t.Fatal(err)
		}

		type live struct {
			tx       *Txn
			snapshot map[int]int64 // committed state when it began
			writes   map[int]int64 // its own uncommitted writes
		}
		var open []*live
		begin := func() {
			snap := make(map[int]int64, keys)
			for k, v := range committed {
				snap[k] = v
			}
			open = append(open, &live{tx: m.Begin(), snapshot: snap, writes: map[int]int64{}})
		}
		begin()

		for step := 0; step < 200; step++ {
			if len(open) == 0 || (len(open) < 4 && rng.Intn(3) == 0) {
				begin()
				continue
			}
			l := open[rng.Intn(len(open))]
			k := rng.Intn(keys)
			switch rng.Intn(4) {
			case 0: // read
				row, _ := l.tx.Read(tbl, tids[k])
				want, owns := l.writes[k]
				if !owns {
					want = l.snapshot[k]
				}
				if row == nil {
					t.Fatalf("trial %d: key %d invisible to snapshot", trial, k)
				}
				if row[1].AsInt() != want {
					t.Fatalf("trial %d: key %d read %d want %d (owns=%v)",
						trial, k, row[1].AsInt(), want, owns)
				}
			case 1: // write
				val := int64(rng.Intn(1000) + 1)
				err := l.tx.Update(tbl, tids[k], storage.Row{storage.NewInt(int64(k)), storage.NewInt(val)})
				if err == nil {
					l.writes[k] = val
				} else if err != ErrWriteConflict {
					t.Fatalf("trial %d: unexpected write error: %v", trial, err)
				}
			case 2: // commit
				if _, err := l.tx.Commit(); err != nil {
					t.Fatalf("trial %d: commit: %v", trial, err)
				}
				for k, v := range l.writes {
					committed[k] = v
				}
				open = removeLive(open, l)
			case 3: // abort
				if err := l.tx.Abort(); err != nil {
					t.Fatalf("trial %d: abort: %v", trial, err)
				}
				open = removeLive(open, l)
			}
		}
		// Finish everything and verify the final committed state.
		for _, l := range open {
			_ = l.tx.Abort()
		}
		check := m.Begin()
		for k := 0; k < keys; k++ {
			row, _ := check.Read(tbl, tids[k])
			if row == nil || row[1].AsInt() != committed[k] {
				t.Fatalf("trial %d: final state key %d: %v want %d", trial, k, row, committed[k])
			}
		}
	}
}

func removeLive[T comparable](s []T, x T) []T {
	for i, v := range s {
		if v == x {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
