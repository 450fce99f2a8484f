package txn

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"tscout/internal/index"
	"tscout/internal/storage"
)

func newTestTable() *storage.Table {
	return storage.NewTable("t", storage.MustSchema(
		storage.Column{Name: "id", Kind: storage.KindInt},
		storage.Column{Name: "val", Kind: storage.KindInt},
	))
}

func row(id, val int64) storage.Row {
	return storage.Row{storage.NewInt(id), storage.NewInt(val)}
}

func TestInsertCommitVisible(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()

	t1 := m.Begin()
	id, err := t1.Insert(tbl, row(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	// Own uncommitted write is visible to self.
	if r, _ := t1.Read(tbl, id); r == nil || r[1].AsInt() != 100 {
		t.Fatalf("own write must be visible: %v", r)
	}
	// Not visible to a concurrent snapshot.
	t2 := m.Begin()
	if r, _ := t2.Read(tbl, id); r != nil {
		t.Fatalf("uncommitted write leaked: %v", r)
	}
	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Still invisible to the old snapshot.
	if r, _ := t2.Read(tbl, id); r != nil {
		t.Fatalf("snapshot isolation violated: %v", r)
	}
	// Visible to a new transaction.
	t3 := m.Begin()
	if r, _ := t3.Read(tbl, id); r == nil || r[1].AsInt() != 100 {
		t.Fatalf("committed write invisible: %v", r)
	}
}

func TestUpdateCreatesVersionChain(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()
	t1 := m.Begin()
	id, _ := t1.Insert(tbl, row(1, 100))
	t1.Commit()

	reader := m.Begin() // snapshot before update
	t2 := m.Begin()
	if err := t2.Update(tbl, id, row(1, 200)); err != nil {
		t.Fatal(err)
	}
	t2.Commit()

	// The old snapshot still reads the old version through the chain.
	r, walked := reader.Read(tbl, id)
	if r == nil || r[1].AsInt() != 100 {
		t.Fatalf("old snapshot: %v", r)
	}
	if walked != 2 {
		t.Fatalf("must walk past the new version: walked %d", walked)
	}
	if r, _ := m.Begin().Read(tbl, id); r[1].AsInt() != 200 {
		t.Fatalf("new snapshot: %v", r)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()
	t0 := m.Begin()
	id, _ := t0.Insert(tbl, row(1, 100))
	t0.Commit()

	t1 := m.Begin()
	t2 := m.Begin()
	if err := t1.Update(tbl, id, row(1, 111)); err != nil {
		t.Fatal(err)
	}
	// Uncommitted owner blocks the second writer.
	if err := t2.Update(tbl, id, row(1, 222)); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("conflict with uncommitted owner: %v", err)
	}
	t1.Commit()
	// Committed-after-snapshot also conflicts (first updater wins).
	if err := t2.Update(tbl, id, row(1, 222)); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("conflict with later commit: %v", err)
	}
	t2.Abort()
}

func TestDeleteTombstone(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()
	t0 := m.Begin()
	id, _ := t0.Insert(tbl, row(1, 100))
	t0.Commit()

	reader := m.Begin()
	t1 := m.Begin()
	if err := t1.Delete(tbl, id); err != nil {
		t.Fatal(err)
	}
	// Deleter sees its own tombstone.
	if r, _ := t1.Read(tbl, id); r != nil {
		t.Fatalf("deleter must not see the row")
	}
	t1.Commit()
	if r, _ := reader.Read(tbl, id); r == nil {
		t.Fatalf("old snapshot must still see the row")
	}
	if r, _ := m.Begin().Read(tbl, id); r != nil {
		t.Fatalf("new snapshot must not see deleted row")
	}
}

func TestAbortRestoresState(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()
	t0 := m.Begin()
	id, _ := t0.Insert(tbl, row(1, 100))
	t0.Commit()

	t1 := m.Begin()
	insID, _ := t1.Insert(tbl, row(2, 200))
	t1.Update(tbl, id, row(1, 111))
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	t2 := m.Begin()
	if r, _ := t2.Read(tbl, id); r == nil || r[1].AsInt() != 100 {
		t.Fatalf("update must roll back: %v", r)
	}
	if r, _ := t2.Read(tbl, insID); r != nil {
		t.Fatalf("aborted insert must be invisible: %v", r)
	}
	// The slot is dead but writable state is consistent: a new update of
	// the restored tuple works.
	if err := t2.Update(tbl, id, row(1, 500)); err != nil {
		t.Fatal(err)
	}
	t2.Commit()
	if r, _ := m.Begin().Read(tbl, id); r[1].AsInt() != 500 {
		t.Fatalf("post-abort update: %v", r)
	}
}

func TestInPlaceCollapse(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()
	t0 := m.Begin()
	id, _ := t0.Insert(tbl, row(1, 100))
	t0.Commit()

	t1 := m.Begin()
	t1.Update(tbl, id, row(1, 200))
	t1.Update(tbl, id, row(1, 300)) // same txn: collapses in place
	if r, _ := t1.Read(tbl, id); r[1].AsInt() != 300 {
		t.Fatalf("collapse read: %v", r)
	}
	// The chain must have exactly two versions (new + committed).
	depth := 0
	for v := tbl.Head(id); v != nil; v = v.Next {
		depth++
	}
	if depth != 2 {
		t.Fatalf("chain depth after collapse: %d", depth)
	}
	t1.Abort()
	if r, _ := m.Begin().Read(tbl, id); r[1].AsInt() != 100 {
		t.Fatalf("abort after collapse: %v", r)
	}
}

func TestCollapseAfterOwnInsert(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()
	t1 := m.Begin()
	id, _ := t1.Insert(tbl, row(1, 100))
	if err := t1.Update(tbl, id, row(1, 200)); err != nil {
		t.Fatal(err)
	}
	t1.Commit()
	if r, _ := m.Begin().Read(tbl, id); r[1].AsInt() != 200 {
		t.Fatalf("update of own insert: %v", r)
	}
}

func TestFinishedTxnRejectsOps(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()
	t1 := m.Begin()
	id, _ := t1.Insert(tbl, row(1, 1))
	t1.Commit()
	if _, err := t1.Insert(tbl, row(2, 2)); !errors.Is(err, ErrNotActive) {
		t.Fatalf("insert after commit: %v", err)
	}
	if err := t1.Update(tbl, id, row(1, 9)); !errors.Is(err, ErrNotActive) {
		t.Fatalf("update after commit: %v", err)
	}
	if _, err := t1.Commit(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double commit: %v", err)
	}
	if err := t1.Abort(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("abort after commit: %v", err)
	}
	if t1.state != StateCommitted {
		t.Fatalf("state: %v", t1.state)
	}
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestReleaseContract: a released transaction answers every write, Commit
// and Abort with ErrNotActive and holds no writes; releasing an active or an
// already-released transaction panics; Begin reuses the released one under
// a new ID with an empty write set and a fresh snapshot.
func TestReleaseContract(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()
	setup := m.Begin()
	id, _ := setup.Insert(tbl, row(1, 1))
	setup.Commit()

	for _, finish := range []struct {
		name string
		f    func(*Txn) error
	}{
		{"commit", func(tx *Txn) error { _, err := tx.Commit(); return err }},
		{"abort", (*Txn).Abort},
	} {
		tx := m.Begin()
		mustPanic(t, "Release of an active transaction", tx.Release)
		if err := tx.Update(tbl, id, row(1, 2)); err != nil {
			t.Fatal(err)
		}
		if err := finish.f(tx); err != nil {
			t.Fatal(err)
		}
		tx.Release()
		if n := len(tx.Writes()); n != 0 {
			t.Errorf("after %s: a released transaction holds %d writes", finish.name, n)
		}
		if _, err := tx.Insert(tbl, row(2, 2)); !errors.Is(err, ErrNotActive) {
			t.Errorf("after %s: insert on a released transaction: %v", finish.name, err)
		}
		if err := tx.Update(tbl, id, row(1, 3)); !errors.Is(err, ErrNotActive) {
			t.Errorf("after %s: update on a released transaction: %v", finish.name, err)
		}
		if err := tx.Delete(tbl, id); !errors.Is(err, ErrNotActive) {
			t.Errorf("after %s: delete on a released transaction: %v", finish.name, err)
		}
		if _, err := tx.Commit(); !errors.Is(err, ErrNotActive) {
			t.Errorf("after %s: commit of a released transaction: %v", finish.name, err)
		}
		if err := tx.Abort(); !errors.Is(err, ErrNotActive) {
			t.Errorf("after %s: abort of a released transaction: %v", finish.name, err)
		}
		mustPanic(t, "a second Release", tx.Release)

		oldID := tx.ID
		next := m.Begin()
		if next != tx || next.ID == oldID || next.state != StateActive || len(next.Writes()) != 0 || next.ReadTS != m.commitTS {
			t.Errorf("after %s: Begin did not reuse the released transaction afresh: %+v", finish.name, next)
		}
		if running, _ := m.stats(); running != 1 {
			t.Errorf("after %s: %d transactions running, want 1", finish.name, running)
		}
		if err := next.Abort(); err != nil {
			t.Fatal(err)
		}
		next.Release()
	}
}

// TestReleaseClearsWrites: a released transaction's write set keeps its
// capacity but no version, so a transaction on the free list pins nothing.
func TestReleaseClearsWrites(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()
	tx := m.Begin()
	tx.Insert(tbl, row(1, 1))
	tx.Insert(tbl, row(2, 2))
	tx.Commit()
	w := tx.Writes()
	tx.Release()
	for i, x := range w[:cap(w)] {
		if x != (Write{}) {
			t.Fatalf("write %d survives Release: %+v", i, x)
		}
	}
}

// TestTxnCycleAllocatesNothing: once the free lists hold a transaction and
// a version of the row's width, a Begin → Update → Commit → Release cycle
// allocates nothing: the update takes the version the previous commit cut.
func TestTxnCycleAllocatesNothing(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()
	setup := m.Begin()
	id, _ := setup.Insert(tbl, row(1, 1))
	setup.Commit()
	setup.Release()
	r := row(1, 2)
	if n := testing.AllocsPerRun(100, func() {
		tx := m.Begin()
		if err := tx.Update(tbl, id, r); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tx.Release()
	}); n != 0 {
		t.Fatalf("a transaction cycle allocates %v objects, want 0", n)
	}
}

// TestIndexReclaimAllocatesNothing: once warm, index reclamation allocates
// nothing. Each cycle holds an older snapshot open, so the key a committed
// update moves off waits on the Manager's queue, and an aborted update
// files a key its abort deletes; ending the old snapshot drains the queue.
func TestIndexReclaimAllocatesNothing(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()
	ix := histIndex{index.NewBTree()}
	setup := m.Begin()
	id, _ := setup.Insert(tbl, row(1, 0))
	ix.Insert(0, int64(id))
	setup.Commit()
	setup.Release()
	val := int64(0)
	move := func(tx *Txn) {
		old := val % histKeys
		val++
		if err := tx.Update(tbl, id, row(1, val)); err != nil {
			t.Fatal(err)
		}
		tx.Unindex(ix, tbl, id, old, false)
		ix.Insert(val%histKeys, int64(id))
		tx.Unindex(ix, tbl, id, val%histKeys, true)
	}
	cycle := func() {
		old := m.Begin()
		tx := m.Begin()
		move(tx)
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tx.Release()
		if len(m.dead) != 1 {
			t.Fatalf("the queue holds %d entries, want 1", len(m.dead))
		}
		tx = m.Begin()
		move(tx)
		val--
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		tx.Release()
		if _, err := old.Commit(); err != nil {
			t.Fatal(err)
		}
		old.Release()
		if tids := ix.Search(val % histKeys); ix.Len() != 1 || len(tids) != 1 || tids[0] != int64(id) {
			t.Fatalf("the index holds %d keys after the cycle, and %v under key %d; want only that", ix.Len(), tids, val%histKeys)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a reclaiming cycle allocates %v objects, want 0", n)
	}
}

func TestRedoBytes(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()
	t1 := m.Begin()
	t1.Insert(tbl, row(1, 1))
	t1.Insert(tbl, row(2, 2))
	var got int64
	for _, w := range t1.Writes() {
		got += w.RedoBytes
	}
	if got != 2*(16+24) {
		t.Fatalf("redo bytes: %d", got)
	}
	if len(t1.Writes()) != 2 {
		t.Fatalf("write set: %d", len(t1.Writes()))
	}
}

func TestUpdateValidation(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()
	t1 := m.Begin()
	if err := t1.Update(tbl, storage.TupleID(5), row(1, 1)); err == nil {
		t.Fatalf("missing tuple must fail")
	}
	id, _ := t1.Insert(tbl, row(1, 1))
	if err := t1.Update(tbl, id, storage.Row{storage.NewString("x"), storage.NewInt(1)}); err == nil {
		t.Fatalf("schema violation must fail")
	}
	if _, err := t1.Insert(tbl, storage.Row{storage.NewInt(1)}); err == nil {
		t.Fatalf("arity violation must fail")
	}
}

// TestWritesCopyTheRow pins the copy contract: Insert and Update store a
// copy of the row they are handed, in cells allocated with the version
// header, so the caller may reuse its row at once; a stored row is never
// written to again — a second write by the same transaction gives the
// version fresh cells rather than writing through the ones it had — and so
// a reader may hold a row, while it runs, across any later write, commit or
// abort.
func TestWritesCopyTheRow(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()
	packed := func(v *storage.Version) bool {
		return unsafe.Pointer(&v.Values[0]) == unsafe.Add(unsafe.Pointer(v), unsafe.Sizeof(storage.Version{}))
	}

	loader := m.Begin()
	inserted := row(1, 100)
	id, err := loader.Insert(tbl, inserted)
	if err != nil {
		t.Fatal(err)
	}
	if !packed(tbl.Head(id)) {
		t.Fatalf("Insert's cells do not follow the version header")
	}
	inserted[1] = storage.NewInt(-1)
	if got, _ := loader.Read(tbl, id); got[1].AsInt() != 100 {
		t.Fatalf("overwriting the inserted row changed the stored one to %v", got[1])
	}
	if _, err := loader.Commit(); err != nil {
		t.Fatal(err)
	}

	for _, commit := range []bool{true, false} {
		reader := m.Begin()
		held, _ := reader.Read(tbl, id)
		before := held[1].AsInt()

		w := m.Begin()
		first := row(1, before+1)
		if err := w.Update(tbl, id, first); err != nil {
			t.Fatal(err)
		}
		v := tbl.Head(id)
		if !packed(v) {
			t.Fatalf("Update's cells do not follow the version header")
		}
		first[1] = storage.NewInt(-1)
		mine, _ := w.Read(tbl, id)
		if mine[1].AsInt() != before+1 {
			t.Fatalf("overwriting the updated row changed the stored one to %v", mine[1])
		}
		if err := w.Update(tbl, id, row(1, before+2)); err != nil {
			t.Fatal(err)
		}
		if tbl.Head(id) != v || &v.Values[0] == &mine[0] || v.Values[1].AsInt() != before+2 {
			t.Fatalf("the second write did not collapse into the version with fresh cells")
		}
		if mine[1].AsInt() != before+1 {
			t.Fatalf("the second write wrote through the first write's cells: %v", mine)
		}

		if commit {
			_, err = w.Commit()
		} else {
			err = w.Abort()
		}
		if err != nil {
			t.Fatal(err)
		}
		if held[1].AsInt() != before {
			t.Fatalf("commit=%v: a held row changed from %d to %d", commit, before, held[1].AsInt())
		}
		if again, _ := reader.Read(tbl, id); &again[0] != &held[0] {
			t.Fatalf("commit=%v: the old snapshot no longer reads the row it read", commit)
		}
		want := before
		if commit {
			want = before + 2
		}
		if now, _ := m.Begin().Read(tbl, id); now[1].AsInt() != want {
			t.Fatalf("commit=%v: a new snapshot reads %d, want %d", commit, now[1].AsInt(), want)
		}
	}
}

// TestOneAllocationPerVersion: with the write set already grown and the
// free lists empty, N inserts, N updates and N deletes each allocate
// ⌈N/block⌉ objects, one block of versions (or of bare headers, for the
// tombstones) for every block length of writes, at every width up to YCSB's
// usertable, the widest table a workload creates. N is three blocks of the
// row's width, so the updates find the inserts' blocks used up.
func TestOneAllocationPerVersion(t *testing.T) {
	const widest = 11
	mallocs := func(f func()) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // as testing.AllocsPerRun does
		defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection cycle allocates
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	_, headers := storage.NewVersionBlock(0)
	for width := 1; width <= widest; width++ {
		cols := make([]storage.Column, width)
		r := make(storage.Row, width)
		for i := range cols {
			cols[i] = storage.Column{Name: fmt.Sprintf("c%d", i), Kind: storage.KindInt}
			r[i] = storage.NewInt(int64(i))
		}
		schema := storage.MustSchema(cols...)
		tbl := storage.NewTable("t", schema)
		m := NewManager()
		_, block := storage.NewVersionBlock(width)
		n := 3 * block
		blocks := func(n, block int) uint64 { return uint64((n + block - 1) / block) }

		// What the table's slot array allocates as it grows to n slots.
		slots := storage.NewTable("slots", schema)
		growth := mallocs(func() {
			for range n {
				slots.Append(nil)
			}
		})

		tx := m.Begin()
		tx.writes = make([]Write, 0, n)
		if got, want := mallocs(func() {
			for range n {
				if _, err := tx.Insert(tbl, r); err != nil {
					t.Fatal(err)
				}
			}
		}), blocks(n, block)+growth; got != want {
			t.Errorf("width %d: %d inserts allocate %d objects, want %d (%d blocks of %d, %d slot array growths)",
				width, n, got, want, blocks(n, block), block, growth)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}

		tx = m.Begin()
		tx.writes = make([]Write, 0, n)
		if got, want := mallocs(func() {
			for id := range storage.TupleID(n) {
				if err := tx.Update(tbl, id, r); err != nil {
					t.Fatal(err)
				}
			}
		}), blocks(n, block); got != want {
			t.Errorf("width %d: %d updates allocate %d objects, want %d", width, n, got, want)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}

		tx = m.Begin()
		tx.writes = make([]Write, 0, n)
		if got, want := mallocs(func() {
			for id := range storage.TupleID(n) {
				if err := tx.Delete(tbl, id); err != nil {
					t.Fatal(err)
				}
			}
		}), blocks(n, headers); got != want {
			t.Errorf("width %d: %d deletes allocate %d objects, want %d", width, n, got, want)
		}
		if v := tbl.Head(0); !v.Deleted || v.Values != nil {
			t.Errorf("width %d: a tombstone holds cells: %v", width, v.Values)
		}
	}
}
