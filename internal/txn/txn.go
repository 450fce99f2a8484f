// Package txn implements HyPer-style multi-version concurrency control for
// the DBMS substrate: snapshot reads against commit-timestamped version
// chains, first-updater-wins write-write conflict detection, commit/abort
// installation, and version reclamation.
//
// Reclamation is a watermark cut made at commit. The Manager keeps the
// running transactions in begin order, so the oldest snapshot is the head
// of that list; a committing transaction takes its timestamp and the
// watermark (the oldest other snapshot, or its own timestamp when it is
// alone) and, on each slot it wrote, drops
// everything older than the newest version the watermark can see. No
// running or future snapshot walks past that version, so Read returns the
// same row after the same number of steps as on an uncut chain; a slot
// keeps the versions committed after the oldest running snapshot plus one.
// The versions the cut unlinks go on the Manager's free lists, one per row
// width, and Insert, Update and Delete take every version from there: an
// empty list is refilled with a block of fresh versions of its width
// (storage.NewVersionBlock), and tombstones come from a list of bare
// headers that only blocks refill. Tombstones, deleted versions and a full
// list's overflow are not recycled, and each pins its block until no
// version of the block is reachable; rows wider than maxRecycledWidth take
// storage.NewVersion's and are left to the Go collector.
//
// Index entries leave at the same cut (DESIGN.md §4, Index reclamation).
// The execution engine hands a transaction, through Unindex, each entry
// its writes filed and each old key they left behind. An aborted
// transaction's filed entries go at once; the keys a committed one left
// behind wait on the Manager's queue, in commit order, until the watermark
// reaches the commit, and each later commit or abort deletes those that
// have. No entry goes while a version some running or future snapshot can
// reach still carries its key.
//
// Recycling is what makes Read's rule hold: a row Read returns is valid
// until its transaction ends. A version no snapshot can reach any longer
// may be rewritten by the next write, so a caller that keeps a row past
// its transaction copies its cells first (exec's results do).
//
// A finished transaction may be handed back with Release; the Manager's
// next Begin reuses it and its write set's capacity, so a transaction whose
// versions come off the free lists allocates nothing (DESIGN.md §4, What a
// transaction allocates).
package txn

import (
	"errors"
	"fmt"
	"slices"

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
	// stateReleased marks a transaction handed back by Release: it is on
	// its Manager's free list and answers every operation with ErrNotActive
	// until a Begin reuses it.
	stateReleased
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
	nextTxnID uint64
	commitTS  uint64
	// oldest and newest end the list of running transactions, linked
	// through Txn.prev/next in Begin order. commitTS never decreases, so
	// ReadTS is non-decreasing along the list and oldest holds the
	// watermark.
	oldest, newest *Txn
	// free holds released transactions for Begin to reuse, newest last. A
	// plain slice: one goroutine drives a simulation.
	free []*Txn
	// versions[w] lists the versions of width w that the next writes take,
	// cut ones and a block's fresh ones, linked through Version.Next;
	// nVersions[w] counts them. versions[0] holds bare headers for
	// tombstones.
	versions  [maxRecycledWidth + 1]*storage.Version
	nVersions [maxRecycledWidth + 1]int
	// dead[deadOff:] queues, in commit order, the index entries committed
	// transactions left behind that a running snapshot may still need.
	dead    []indexEntry
	deadOff int
}

// rowIndex is an index over a table's rows as the Manager sees it: the key a
// row files under, and the removal of an entry. The catalog's indexes are
// the ones.
type rowIndex interface {
	KeyFor(storage.Row) int64
	Delete(key int64, tid storage.TupleID)
}

// indexEntry is ix's entry (key, tid) into slot tid of tbl. made says the
// transaction's write filed it, which an abort undoes; otherwise the write
// left it behind, and ts, once the transaction has committed, is its
// commit timestamp.
type indexEntry struct {
	ix   rowIndex
	tbl  *storage.Table
	tid  storage.TupleID
	key  int64
	made bool
	ts   uint64
}

// maxKeptWrites caps the write-set capacity a released transaction keeps
// for its next Begin, so that one bulk load does not pin a large array for
// the life of the server.
const maxKeptWrites = 1024

// maxRecycledWidth is the widest row whose versions are recycled: the
// widest storage.NewVersionBlock packs, YCSB's 11-column usertable.
const maxRecycledWidth = 11

// maxFreeVersions caps what recycle puts on each free list, so that the
// long chains one old snapshot pinned do not stay on the lists for the life
// of the server once a commit cuts them. A refill is one block, far less.
const maxFreeVersions = 1024

// NewManager creates a transaction manager. Commit timestamps start at 1;
// loader transactions committed through the manager are visible to all
// later snapshots.
func NewManager() *Manager {
	return &Manager{nextTxnID: 1, commitTS: 1}
}

// Begin starts a transaction with a snapshot at the current commit
// timestamp. It reuses a released transaction when there is one.
func (m *Manager) Begin() *Txn {
	id := m.nextTxnID
	m.nextTxnID++
	var t *Txn
	if n := len(m.free); n > 0 {
		t = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		t.ID, t.ReadTS, t.state, t.prev = id, m.commitTS, StateActive, m.newest
	} else {
		t = &Txn{mgr: m, ID: id, ReadTS: m.commitTS, state: StateActive, prev: m.newest}
	}
	if m.newest != nil {
		m.newest.next = t
	} else {
		m.oldest = t
	}
	m.newest = t
	return t
}

// watermark is the oldest running snapshot, or the snapshot the next Begin
// would take when none runs: no running or future snapshot reads a slot
// past the newest version that began at or before it.
func (m *Manager) watermark() uint64 {
	if m.oldest != nil {
		return m.oldest.ReadTS
	}
	return m.commitTS
}

// reachable reports whether a version of e's slot that a snapshot at or
// after watermark, or its uncommitted writer, may read carries e's key.
func (e *indexEntry) reachable(watermark uint64) bool {
	for v := e.tbl.Head(e.tid); v != nil; v = v.Next {
		if !v.Deleted && e.ix.KeyFor(v.Values) == e.key {
			return true
		}
		if v.TxnID == 0 && v.Begin <= watermark {
			return false
		}
	}
	return false
}

// reclaim deletes each queued entry whose commit is at or before watermark
// unless a reachable version carries its key, and drops it from the queue.
func (m *Manager) reclaim(watermark uint64) {
	i := m.deadOff
	for ; i < len(m.dead) && m.dead[i].ts <= watermark; i++ {
		if e := &m.dead[i]; !e.reachable(watermark) {
			e.ix.Delete(e.key, e.tid)
		}
	}
	switch {
	case i == len(m.dead):
		m.dead, m.deadOff = m.dead[:0], 0
	case 2*i > len(m.dead):
		m.dead, m.deadOff = m.dead[:copy(m.dead, m.dead[i:])], 0
	default:
		m.deadOff = i
	}
}

// finish takes t off the running list.
func (m *Manager) finish(t *Txn) {
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

// newVersion returns a version holding a copy of row, and a bare header for
// a nil row (a tombstone): one off the free list of row's width, its header
// reset, after refilling an empty list with a block of fresh versions. A row
// wider than maxRecycledWidth takes storage.NewVersion's.
func (m *Manager) newVersion(row storage.Row) *storage.Version {
	w := len(row)
	if w > maxRecycledWidth || (w == 0 && row != nil) {
		return storage.NewVersion(row)
	}
	v := m.versions[w]
	if v == nil {
		v, m.nVersions[w] = storage.NewVersionBlock(w)
	}
	m.versions[w], m.nVersions[w] = v.Next, m.nVersions[w]-1
	*v = storage.Version{Values: v.Values}
	copy(v.Values, row)
	return v
}

// recycle puts the versions of a chain the cut unlinked on the free lists.
// Tombstones, deleted versions, rows wider than maxRecycledWidth and what a
// full list has no room for are dropped: the Go collector frees a block once
// none of its versions is reachable.
func (m *Manager) recycle(v *storage.Version) {
	for v != nil {
		next := v.Next
		if w := len(v.Values); !v.Deleted && w >= 1 && w <= maxRecycledWidth && m.nVersions[w] < maxFreeVersions {
			v.Next = m.versions[w]
			m.versions[w] = v
			m.nVersions[w]++
		}
		v = next
	}
}

// Txn is one transaction.
type Txn struct {
	mgr    *Manager
	ID     uint64
	ReadTS uint64
	state  State
	writes []Write
	// unindex holds the index entries t's writes filed or left behind.
	unindex []indexEntry
	// prev and next link the transaction into its Manager's running list
	// (older and newer snapshot); both are nil once it has finished.
	prev, next *Txn
}

// Writes returns the transaction's write set (for WAL record generation).
// The slice is the transaction's own and is cleared by Release.
func (t *Txn) Writes() []Write { return t.writes }

// Release hands a finished transaction back to its Manager, whose next
// Begin reuses it together with its write set's capacity. After Release
// the transaction answers every write, Commit and Abort with ErrNotActive,
// and its Writes is empty; the caller must drop every reference to it,
// because a later Begin hands the same *Txn out again under a new ID.
// Releasing an active transaction, or one already released, panics.
// Release is optional: a transaction never released is left to the Go
// collector.
func (t *Txn) Release() {
	switch t.state {
	case StateActive:
		panic("txn: Release of an active transaction")
	case stateReleased:
		panic("txn: Release of a released transaction")
	}
	t.state = stateReleased
	if cap(t.writes) > maxKeptWrites {
		t.writes = nil
	} else {
		clear(t.writes)
		t.writes = t.writes[:0]
	}
	if cap(t.unindex) > maxKeptWrites {
		t.unindex = nil
	} else {
		clear(t.unindex)
		t.unindex = t.unindex[:0]
	}
	t.mgr.free = append(t.mgr.free, t)
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
// version-chain traversal work. The row is the stored version's own slice,
// which the caller must not write to. It is valid until the transaction
// ends: while t runs, its snapshot keeps the version on its chain, and no
// write touches the cells of an installed version; once t has committed or
// aborted, a commit may cut the version and a later write reuse it for
// another row. A caller that keeps a row longer copies its cells.
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

// Insert appends a new tuple owned by this transaction. The stored version
// holds a copy of row in cells of its own (a version off the free list of
// row's width), so the caller may reuse row as soon as Insert returns.
func (t *Txn) Insert(tbl *storage.Table, row storage.Row) (storage.TupleID, error) {
	if t.state != StateActive {
		return storage.InvalidTupleID, ErrNotActive
	}
	if err := tbl.Schema().Validate(row); err != nil {
		return storage.InvalidTupleID, err
	}
	v := t.mgr.newVersion(row)
	v.TxnID, v.End = t.ID, storage.InfinityTS
	id := tbl.Append(v)
	t.writes = append(t.writes, Write{
		Kind: WriteInsert, Table: tbl, TID: id, Version: v,
		RedoBytes: row.Size() + redoHeaderBytes,
	})
	return id, nil
}

// redoHeaderBytes is the fixed per-record WAL overhead.
const redoHeaderBytes = 24

// Update installs a new version of the tuple holding a copy of row, which
// the caller may reuse as soon as Update returns. It fails with
// ErrWriteConflict if another transaction owns the newest version or
// committed it after this transaction's snapshot.
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
		// version gets fresh cells; the ones it held are left as they were
		// for whoever read them.
		head.Deleted = del
		if !del {
			head.Values = slices.Clone(row)
		}
		t.writes = append(t.writes, Write{
			Kind: kindFor(del), Table: tbl, TID: id, Version: head,
			RedoBytes: rowBytes(row) + redoHeaderBytes,
		})
		return nil
	}
	v := t.mgr.newVersion(row)
	v.TxnID, v.End, v.Deleted, v.Next = t.ID, storage.InfinityTS, del, head
	tbl.SetHead(id, v)
	t.writes = append(t.writes, Write{
		Kind: kindFor(del), Table: tbl, TID: id, Version: v,
		RedoBytes: rowBytes(row) + redoHeaderBytes,
	})
	return nil
}

// Unindex hands t the entry (key, tid) of ix into slot tid of tbl that a
// write of t's filed, with made set, or left behind: the key of a row t
// deleted, or the old key of one it moved. The entry leaves ix when no
// running or future snapshot can reach a version of the slot that carries
// key: a filed entry when t aborts, a left one at once if only t's own
// write carried it, and otherwise once t has committed and every running
// snapshot began at or after its commit. A write that files no entry and
// leaves none behind, such as an update of no key column, hands t nothing.
func (t *Txn) Unindex(ix rowIndex, tbl *storage.Table, tid storage.TupleID, key int64, made bool) {
	e := indexEntry{ix: ix, tbl: tbl, tid: tid, key: key, made: made}
	if !made && !e.reachable(t.mgr.watermark()) {
		ix.Delete(key, tid)
		return
	}
	t.unindex = append(t.unindex, e)
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
// The commit queues the index entries t's writes left behind, then deletes
// each queued entry the watermark has passed whose key no reachable
// version carries.
//
// The timestamp, the watermark, the stamps and the cut are one step: a
// snapshot begun after the timestamp exists must find every version it
// stamps already committed, or it would skip a head still owned by the
// committer and read the version below it — stale before reclamation, and
// gone after it. Nothing interleaves with the step because one goroutine
// drives a simulation (see the sim package doc).
func (t *Txn) Commit() (uint64, error) {
	if t.state != StateActive {
		return 0, ErrNotActive
	}
	m := t.mgr
	m.commitTS++
	ts := m.commitTS
	m.finish(t)
	watermark := m.watermark()
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
			m.recycle(v.Next)
			v.Next = nil
		}
	}
	for _, e := range t.unindex {
		if !e.made {
			e.ts = ts
			m.dead = append(m.dead, e)
		}
	}
	m.reclaim(watermark)
	t.state = StateCommitted
	return ts, nil
}

// Abort rolls the transaction back: updated/deleted slots get their old
// heads restored; inserted slots become permanently-invisible tombstones.
// The index entries t's writes filed leave, unless a version a snapshot can
// reach carries the key, and so do the queued entries the watermark has
// now passed.
func (t *Txn) Abort() error {
	if t.state != StateActive {
		return ErrNotActive
	}
	t.mgr.finish(t)
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
	watermark := t.mgr.watermark()
	for i := range t.unindex {
		if e := &t.unindex[i]; e.made && !e.reachable(watermark) {
			e.ix.Delete(e.key, e.tid)
		}
	}
	t.mgr.reclaim(watermark)
	t.state = StateAborted
	return nil
}
