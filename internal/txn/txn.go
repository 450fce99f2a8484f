// Package txn implements HyPer-style multi-version concurrency control for
// the DBMS substrate: snapshot reads against commit-timestamped version
// chains, first-updater-wins write-write conflict detection, commit/abort
// installation, and version reclamation.
//
// Reclamation is a watermark cut made at commit. The Manager keeps the
// running transactions in begin order, so the oldest snapshot is the head
// of that list; a committing transaction takes its timestamp and the
// watermark (the oldest other snapshot, or its own timestamp when it is
// alone) in one critical section and, on each slot it wrote, drops
// everything older than the newest version the watermark can see. No
// running or future snapshot walks past that version, so Read returns the
// same row after the same number of steps as on an uncut chain; a slot
// keeps the versions committed after the oldest running snapshot plus one,
// and the rest is left to the Go collector. Index entries and tombstones are
// not reclaimed (DESIGN.md §4, Version reclamation).
package txn

import (
	"errors"
	"fmt"
	"sync"

	"tscout/internal/storage"
)

// ErrWriteConflict is returned when a write loses first-updater-wins.
var ErrWriteConflict = errors.New("txn: write-write conflict")

// ErrNotActive is returned for operations on finished transactions.
var ErrNotActive = errors.New("txn: transaction not active")

// State is a transaction's lifecycle state.
type State int

// Transaction states.
const (
	StateActive State = iota
	StateCommitted
	StateAborted
)

// WriteKind classifies a write for redo logging.
type WriteKind int

// Write kinds.
const (
	WriteInsert WriteKind = iota
	WriteUpdate
	WriteDelete
)

// Write records one tuple write for commit installation and WAL redo.
type Write struct {
	Kind    WriteKind
	Table   *storage.Table
	TID     storage.TupleID
	Version *storage.Version
	// RedoBytes is the log payload size this write will produce.
	RedoBytes int64
}

// Manager allocates transaction IDs and commit timestamps, and knows the
// oldest snapshot still running.
type Manager struct {
	mu        sync.Mutex
	nextTxnID uint64 // guarded by mu
	commitTS  uint64 // guarded by mu
	// oldest and newest end the list of running transactions, linked
	// through Txn.prev/next in Begin order. commitTS never decreases, so
	// ReadTS is non-decreasing along the list and oldest holds the
	// watermark.
	oldest, newest *Txn   // guarded by mu
	unlinked       uint64 // guarded by mu — versions cut off their chains
}

// NewManager creates a transaction manager. Commit timestamps start at 1;
// loader transactions committed through the manager are visible to all
// later snapshots.
func NewManager() *Manager {
	return &Manager{nextTxnID: 1, commitTS: 1}
}

// Begin starts a transaction with a snapshot at the current commit
// timestamp.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextTxnID
	m.nextTxnID++
	t := &Txn{mgr: m, ID: id, ReadTS: m.commitTS, state: StateActive, prev: m.newest}
	if m.newest != nil {
		m.newest.next = t
	} else {
		m.oldest = t
	}
	m.newest = t
	return t
}

// finishLocked takes t off the running list. The caller holds m.mu.
func (m *Manager) finishLocked(t *Txn) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		m.oldest = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		m.newest = t.prev
	}
	t.prev, t.next = nil, nil
}

// stats reports the number of running transactions, the oldest running
// snapshot (0 when none) and the versions reclaimed so far. Tests read it.
func (m *Manager) stats() (running int, oldestReadTS, unlinked uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.oldest != nil {
		oldestReadTS = m.oldest.ReadTS
	}
	for t := m.oldest; t != nil; t = t.next {
		running++
	}
	return running, oldestReadTS, m.unlinked
}

// Txn is one transaction.
type Txn struct {
	mgr    *Manager
	ID     uint64
	ReadTS uint64
	state  State
	writes []Write
	// prev and next link the transaction into its Manager's running list
	// (older and newer snapshot); both are nil once it has finished.
	prev, next *Txn
}

// State returns the transaction's lifecycle state.
func (t *Txn) State() State { return t.state }

// Writes returns the transaction's write set (for WAL record generation).
func (t *Txn) Writes() []Write { return t.writes }

// RedoBytes returns the total log payload the transaction will emit.
func (t *Txn) RedoBytes() int64 {
	var n int64
	for _, w := range t.writes {
		n += w.RedoBytes
	}
	return n
}

// visible reports whether version v is visible to this transaction.
func (t *Txn) visible(v *storage.Version) bool {
	if v.TxnID != 0 {
		return v.TxnID == t.ID
	}
	return v.Begin <= t.ReadTS && t.ReadTS < v.End
}

// Read returns the visible row for a tuple slot (nil if none) along with
// the number of versions walked, which the execution engine charges as
// version-chain traversal work. The row is the stored version's own slice:
// a stored row is never modified, so the caller may hold it and read it
// for as long as it likes, and must not write to it.
func (t *Txn) Read(tbl *storage.Table, id storage.TupleID) (storage.Row, int) {
	walked := 0
	for v := tbl.Head(id); v != nil; v = v.Next {
		walked++
		if t.visible(v) {
			if v.Deleted {
				return nil, walked
			}
			return v.Values, walked
		}
	}
	return nil, walked
}

// Insert appends a new tuple owned by this transaction. It takes ownership
// of row, which becomes the stored version as it is: the caller may go on
// reading it and must not modify it afterwards.
func (t *Txn) Insert(tbl *storage.Table, row storage.Row) (storage.TupleID, error) {
	if t.state != StateActive {
		return storage.InvalidTupleID, ErrNotActive
	}
	if err := tbl.Schema().Validate(row); err != nil {
		return storage.InvalidTupleID, err
	}
	v := &storage.Version{TxnID: t.ID, End: storage.InfinityTS, Values: row}
	id := tbl.Append(v)
	t.writes = append(t.writes, Write{
		Kind: WriteInsert, Table: tbl, TID: id, Version: v,
		RedoBytes: row.Size() + redoHeaderBytes,
	})
	return id, nil
}

// redoHeaderBytes is the fixed per-record WAL overhead.
const redoHeaderBytes = 24

// Update installs a new version of the tuple with the given row, taking
// ownership of it as Insert does. It fails with ErrWriteConflict if another
// transaction owns the newest version or committed it after this
// transaction's snapshot.
func (t *Txn) Update(tbl *storage.Table, id storage.TupleID, row storage.Row) error {
	return t.write(tbl, id, row, false)
}

// Delete installs a tombstone version for the tuple.
func (t *Txn) Delete(tbl *storage.Table, id storage.TupleID) error {
	return t.write(tbl, id, nil, true)
}

func (t *Txn) write(tbl *storage.Table, id storage.TupleID, row storage.Row, del bool) error {
	if t.state != StateActive {
		return ErrNotActive
	}
	if !del {
		if err := tbl.Schema().Validate(row); err != nil {
			return err
		}
	}
	head := tbl.Head(id)
	if head == nil {
		return fmt.Errorf("txn: tuple %d does not exist", id)
	}
	if head.TxnID != 0 && head.TxnID != t.ID {
		return ErrWriteConflict
	}
	if head.TxnID == 0 && head.Begin > t.ReadTS {
		return ErrWriteConflict // committed after our snapshot: first updater wins
	}
	if head.TxnID == t.ID {
		// Second write by the same transaction: collapse in place. The
		// version takes the new slice; the one it held is left as it was
		// for whoever read it.
		head.Deleted = del
		if !del {
			head.Values = row
		}
		t.writes = append(t.writes, Write{
			Kind: kindFor(del), Table: tbl, TID: id, Version: head,
			RedoBytes: rowBytes(row) + redoHeaderBytes,
		})
		return nil
	}
	v := &storage.Version{
		TxnID: t.ID, End: storage.InfinityTS, Deleted: del, Values: row, Next: head,
	}
	if !tbl.CompareAndSetHead(id, head, v) {
		return ErrWriteConflict // someone raced us to the slot
	}
	t.writes = append(t.writes, Write{
		Kind: kindFor(del), Table: tbl, TID: id, Version: v,
		RedoBytes: rowBytes(row) + redoHeaderBytes,
	})
	return nil
}

func kindFor(del bool) WriteKind {
	if del {
		return WriteDelete
	}
	return WriteUpdate
}

func rowBytes(r storage.Row) int64 {
	if r == nil {
		return 0
	}
	return r.Size()
}

// Commit makes the transaction's writes durable in the version store and
// returns the commit timestamp. WAL persistence is the caller's concern
// (the DBMS session hands the write set to the log serializer).
//
// The timestamp, the watermark, the stamps and the cut are one critical
// section of the Manager: a snapshot begun after the timestamp exists must
// find every version it stamps already committed, or it would skip a head
// still owned by the committer and read the version below it — stale
// before reclamation, and gone after it. Version fields are plain words, so
// a transaction may share a table only with transactions on its own
// goroutine; the drivers do, and a multi-goroutine driver needs atomic
// fields here as it needs the table lock in storage.
func (t *Txn) Commit() (uint64, error) {
	if t.state != StateActive {
		return 0, ErrNotActive
	}
	m := t.mgr
	m.mu.Lock()
	m.commitTS++
	ts := m.commitTS
	m.finishLocked(t)
	watermark := ts
	if m.oldest != nil {
		watermark = m.oldest.ReadTS
	}
	for _, w := range t.writes {
		v := w.Version
		v.Begin = ts
		v.TxnID = 0
		if v.Next != nil {
			v.Next.End = ts
		}
		// Every snapshot at or after the watermark stops at or before the
		// newest version that began at or before it.
		for v != nil && v.Begin > watermark {
			v = v.Next
		}
		if v != nil {
			for old := v.Next; old != nil; old = old.Next {
				m.unlinked++
			}
			v.Next = nil
		}
	}
	m.mu.Unlock()
	t.state = StateCommitted
	return ts, nil
}

// Abort rolls the transaction back: updated/deleted slots get their old
// heads restored; inserted slots become permanently-invisible tombstones.
func (t *Txn) Abort() error {
	if t.state != StateActive {
		return ErrNotActive
	}
	t.mgr.mu.Lock()
	t.mgr.finishLocked(t)
	t.mgr.mu.Unlock()
	for i := len(t.writes) - 1; i >= 0; i-- {
		w := t.writes[i]
		if w.Kind == WriteInsert {
			w.Version.TxnID = 0
			w.Version.Begin = 0
			w.Version.End = 0
			w.Version.Deleted = true
			continue
		}
		// Only unlink if this write's version is still the head (in-place
		// collapses share versions; restoring once suffices).
		if w.Table.Head(w.TID) == w.Version && w.Version.Next != nil {
			w.Table.SetHead(w.TID, w.Version.Next)
		} else if w.Table.Head(w.TID) == w.Version {
			w.Version.TxnID = 0
			w.Version.Begin = 0
			w.Version.End = 0
			w.Version.Deleted = true
		}
	}
	t.state = StateAborted
	return nil
}
