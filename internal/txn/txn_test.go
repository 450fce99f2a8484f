package txn

import (
	"errors"
	"testing"

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
	if t1.State() != StateCommitted {
		t.Fatalf("state: %v", t1.State())
	}
}

func TestRedoBytes(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()
	t1 := m.Begin()
	t1.Insert(tbl, row(1, 1))
	t1.Insert(tbl, row(2, 2))
	if got := t1.RedoBytes(); got != 2*(16+24) {
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

// TestWritesTakeTheRow pins the ownership rule: Insert and Update store the
// slice they are handed, a stored row is never written to again — a second
// write by the same transaction swaps the version's slice rather than
// writing through it — and so a reader may hold a row across any later
// write, commit or abort.
func TestWritesTakeTheRow(t *testing.T) {
	m := NewManager()
	tbl := newTestTable()
	is := func(a, b storage.Row) bool { return &a[0] == &b[0] }

	loader := m.Begin()
	inserted := row(1, 100)
	id, err := loader.Insert(tbl, inserted)
	if err != nil {
		t.Fatal(err)
	}
	if v := tbl.Head(id); !is(v.Values, inserted) {
		t.Fatalf("Insert stored a copy of the row")
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
		if !is(v.Values, first) {
			t.Fatalf("Update stored a copy of the row")
		}
		mine, _ := w.Read(tbl, id)
		second := row(1, before+2)
		if err := w.Update(tbl, id, second); err != nil {
			t.Fatal(err)
		}
		if tbl.Head(id) != v || !is(v.Values, second) {
			t.Fatalf("the second write did not collapse into the version, taking the new slice")
		}
		if first[1].AsInt() != before+1 || mine[1].AsInt() != before+1 {
			t.Fatalf("the second write wrote through the first write's row: %v", first)
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
		if again, _ := reader.Read(tbl, id); !is(again, held) {
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
