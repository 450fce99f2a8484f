package txn

// A specification of the transaction layer as histories: per slot, every
// version ever committed as (begin, end, deleted, row), plus the write of
// the one transaction that may hold it uncommitted, which a second write
// by that transaction replaces. From it follow the row a snapshot reads,
// the steps a chain that is never cut walks to reach it, first-updater-wins
// conflicts, and the chain a commit leaves behind at the watermark.
// runSchedule drives the real Manager beside it.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tscout/internal/index"
	"tscout/internal/storage"
)

// histVersion is one version of a slot, visible to snapshots in
// [begin, end).
type histVersion struct {
	begin, end uint64
	deleted    bool
	row        storage.Row
}

// histSlot is one slot's history, oldest first, and the uncommitted write
// of owner (0 when there is none).
type histSlot struct {
	versions []histVersion
	owner    uint64
	write    histVersion
}

// history is one table's slots and the last commit timestamp.
type history struct {
	slots    []histSlot
	commitTS uint64
	lastID   uint64
}

// histTxn is a transaction of the model: its snapshot and the slots it
// holds uncommitted.
type histTxn struct {
	id, readTS uint64
	slots      []int
}

// chain is the slot's versions newest first, as a chain that is never cut
// holds them: the uncommitted write, then the committed versions.
func (h *history) chain(s int) []histVersion {
	sl := &h.slots[s]
	out := slices.Clone(sl.versions)
	slices.Reverse(out)
	if sl.owner != 0 {
		out = append([]histVersion{sl.write}, out...)
	}
	return out
}

// read is what t sees of slot s — its own write, else the committed
// version its snapshot falls in — and how many versions of the uncut chain
// are walked to find it. An uncommitted write begins at infinity.
func (h *history) read(t *histTxn, s int) (storage.Row, int) {
	chain := h.chain(s)
	for i, v := range chain {
		if (i == 0 && h.slots[s].owner == t.id) || (v.begin <= t.readTS && t.readTS < v.end) {
			if v.deleted {
				return nil, i + 1
			}
			return v.row, i + 1
		}
	}
	return nil, len(chain)
}

// write installs t's write on slot s unless another transaction holds it,
// or committed it after t's snapshot: the first updater wins.
func (h *history) write(t *histTxn, s int, row storage.Row, del bool) error {
	sl := &h.slots[s]
	n := len(sl.versions)
	if (sl.owner != 0 && sl.owner != t.id) || (sl.owner == 0 && n > 0 && sl.versions[n-1].begin > t.readTS) {
		return ErrWriteConflict
	}
	if sl.owner == 0 {
		t.slots = append(t.slots, s)
	}
	sl.owner, sl.write = t.id, histVersion{storage.InfinityTS, storage.InfinityTS, del, row}
	return nil
}

// commit stamps t's writes with the next timestamp, which ends the version
// each replaces.
func (h *history) commit(t *histTxn) uint64 {
	h.commitTS++
	for _, s := range t.slots {
		sl := &h.slots[s]
		if n := len(sl.versions); n > 0 {
			sl.versions[n-1].end = h.commitTS
		}
		v := sl.write
		v.begin = h.commitTS
		sl.versions, sl.owner = append(sl.versions, v), 0
	}
	return h.commitTS
}

// abort drops t's writes. A slot t inserted keeps a version no snapshot
// sees.
func (h *history) abort(t *histTxn) {
	for _, s := range t.slots {
		sl := &h.slots[s]
		if len(sl.versions) == 0 {
			sl.versions = []histVersion{{deleted: true}}
		}
		sl.owner = 0
	}
}

// histIndex files a row under its value modulo histKeys, so that a slot's
// key moves on most updates and comes back to one it had: A → B → A.
type histIndex struct{ *index.BTree }

const histKeys = 4

func (ix histIndex) KeyFor(r storage.Row) int64 { return r[1].AsInt() % histKeys }

func (ix histIndex) Delete(key int64, tid storage.TupleID) { ix.BTree.Delete(key, int64(tid)) }

// entries is every (key, slot) ix holds, sorted; a slot filed twice under
// one key appears twice.
func (ix histIndex) entries() [][2]int64 {
	var out [][2]int64
	ix.Range(math.MinInt64, math.MaxInt64, func(k int64, tids []int64) bool {
		for _, tid := range tids {
			out = append(out, [2]int64{k, tid})
		}
		return true
	})
	slices.SortFunc(out, compareEntries)
	return out
}

func compareEntries(a, b [2]int64) int {
	return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
}

// indexed is what an index over the history holds: an entry for each
// version some running or future snapshot may read, the committed versions
// that end after the watermark and the uncommitted writes, less the
// deleted ones; each (key, slot) once.
func (h *history) indexed(ix histIndex, watermark uint64) [][2]int64 {
	var out [][2]int64
	add := func(s int, v histVersion) {
		if v.deleted {
			return
		}
		if e := [2]int64{ix.KeyFor(v.row), int64(s)}; !slices.Contains(out, e) {
			out = append(out, e)
		}
	}
	for s := range h.slots {
		sl := &h.slots[s]
		for _, v := range sl.versions {
			if v.end > watermark {
				add(s, v)
			}
		}
		if sl.owner != 0 {
			add(s, sl.write)
		}
	}
	slices.SortFunc(out, compareEntries)
	return out
}

// Schedule shape: at most pruneMaxOpen snapshots open at once over at most
// pruneMaxSlots tuple slots, pruneSeedSlots of them loaded up front.
const (
	pruneMaxOpen   = 8
	pruneMaxSlots  = 16
	pruneSeedSlots = 6
)

// runSchedule reads sched as operations (begin, read, update, delete,
// insert, commit, abort; three bytes each: operation, transaction, slot),
// with at most maxOpen transactions open, and applies each to the real
// Manager and to the history. It fails unless
//
//   - every snapshot, write error and inserted slot is the history's;
//   - after each operation, and for a new snapshot at the end, every Read
//     by every open snapshot of every slot returns the history's row after
//     the steps the uncut chain walks;
//   - after a commit, each slot it wrote holds exactly the history's chain
//     down to the newest version that began at or before the watermark
//     (the oldest other open snapshot, else the commit itself), which is at
//     most the commits since that snapshot plus one;
//   - Manager.stats agrees with the open snapshots and the oldest of them;
//   - after each operation, no version on any slot's chain is on the
//     Manager's free lists, no version is on them twice, and each list
//     holds only live versions of its own width (bare headers at width 0),
//     as many as it counts and no more than its bound;
//   - a version first seen on a free list, one a refill put there, is fresh:
//     a zero header whose Values are its width's NULL cells, capped at the
//     width; and no two versions, listed or chained, share a cell;
//   - after each operation, an index over the values, maintained as the
//     execution engine maintains one (an insert files the row's key; an
//     update that moves the key hands the old one to Unindex and files the
//     new one, unless the slot has it, and hands that to Unindex too; a
//     delete hands the row's key to Unindex), holds exactly one entry for each key a version some running
//     or future snapshot may read carries, and nothing else.
func runSchedule(t testing.TB, sched []byte, maxOpen int) {
	m, h := NewManager(), &history{commitTS: 1}
	tbl := storage.NewTable("t", storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt},
		storage.Column{Name: "v", Kind: storage.KindInt},
	))
	type pair struct {
		real  *Txn
		model *histTxn
	}
	var open []pair
	begin := func() pair {
		h.lastID++
		p := pair{m.Begin(), &histTxn{id: h.lastID, readTS: h.commitTS}}
		if p.real.ReadTS != p.model.readTS {
			t.Fatalf("snapshot %d, history %d", p.real.ReadTS, p.model.readTS)
		}
		return p
	}
	row := func(k, v int64) storage.Row { return storage.Row{storage.NewInt(k), storage.NewInt(v)} }
	same := func(what string, rerr, herr error) {
		t.Helper()
		if fmt.Sprint(rerr) != fmt.Sprint(herr) {
			t.Fatalf("%s: real %v, history %v", what, rerr, herr)
		}
	}
	ix := histIndex{index.NewBTree()}
	file := func(p pair, s int, r storage.Row) {
		key := ix.KeyFor(r)
		if !slices.Contains(ix.Search(key), int64(s)) {
			ix.Insert(key, int64(s))
		}
		p.real.Unindex(ix, tbl, storage.TupleID(s), key, true)
	}
	insert := func(p pair, val int64) {
		t.Helper()
		s := len(h.slots)
		h.slots = append(h.slots, histSlot{})
		_ = h.write(p.model, s, row(int64(s), val), false) // a new slot has no writer to lose to
		if id, err := p.real.Insert(tbl, row(int64(s), val)); err != nil || int(id) != s {
			t.Fatalf("insert: real slot %d (%v), history %d", id, err, s)
		}
		file(p, s, row(int64(s), val))
	}
	// update and remove write slot s as the engine does, which reads the
	// row first: a write that finds none has no key to leave behind.
	update := func(p pair, s int, r storage.Row) error {
		old, _ := p.real.Read(tbl, storage.TupleID(s))
		err := p.real.Update(tbl, storage.TupleID(s), r)
		if err == nil && (old == nil || ix.KeyFor(old) != ix.KeyFor(r)) {
			if old != nil {
				p.real.Unindex(ix, tbl, storage.TupleID(s), ix.KeyFor(old), false)
			}
			file(p, s, r)
		}
		return err
	}
	remove := func(p pair, s int) error {
		old, _ := p.real.Read(tbl, storage.TupleID(s))
		err := p.real.Delete(tbl, storage.TupleID(s))
		if err == nil && old != nil {
			p.real.Unindex(ix, tbl, storage.TupleID(s), ix.KeyFor(old), false)
		}
		return err
	}
	checkIndex := func(step int) {
		t.Helper()
		watermark := h.commitTS
		if len(open) > 0 {
			watermark = open[0].model.readTS
		}
		if got, want := ix.entries(), h.indexed(ix, watermark); !slices.Equal(got, want) {
			t.Fatalf("step %d: at watermark %d the index holds %v, reachable versions carry %v", step, watermark, got, want)
		}
	}
	chain := func(id int) []*storage.Version {
		var vs []*storage.Version
		for v := tbl.Head(storage.TupleID(id)); v != nil; v = v.Next {
			vs = append(vs, v)
		}
		return vs
	}
	readAll := func(step int) {
		t.Helper()
		for _, p := range open {
			for s := range h.slots {
				rrow, rwalked := p.real.Read(tbl, storage.TupleID(s))
				hrow, hwalked := h.read(p.model, s)
				if rwalked != hwalked || (rrow == nil) != (hrow == nil) ||
					(rrow != nil && (rrow[0].Compare(hrow[0]) != 0 || rrow[1].Compare(hrow[1]) != 0)) {
					t.Fatalf("step %d: txn %d (snapshot %d) slot %d: real (%v, walked %d), history (%v, walked %d)",
						step, p.real.ID, p.real.ReadTS, s, rrow, rwalked, hrow, hwalked)
				}
			}
		}
	}
	checkStats := func(step int) {
		t.Helper()
		var oldest uint64
		if len(open) > 0 {
			oldest = open[0].model.readTS // open is in begin order
		}
		running, gotOldest := m.stats()
		if running != len(open) || gotOldest != oldest {
			t.Fatalf("step %d: stats (running %d, oldest %d), schedule has (%d, %d)",
				step, running, gotOldest, len(open), oldest)
		}
	}

	known := map[*storage.Version]bool{} // every version a check has seen
	checkFree := func(step int) {
		t.Helper()
		lists, twice := m.freeLists()
		if twice != nil {
			t.Fatalf("step %d: version %p is on the free lists twice", step, twice)
		}
		free := map[*storage.Version]bool{}
		cells := map[*storage.Value]*storage.Version{}
		owns := func(v *storage.Version) {
			if len(v.Values) == 0 {
				return
			}
			if o := cells[&v.Values[0]]; o != nil && o != v {
				t.Fatalf("step %d: versions %p and %p share their cells", step, o, v)
			}
			cells[&v.Values[0]] = v
		}
		for w, list := range lists {
			if len(list) != m.nVersions[w] || len(list) > maxFreeVersions {
				t.Fatalf("step %d: the width-%d free list holds %d versions, counts %d, bound %d",
					step, w, len(list), m.nVersions[w], maxFreeVersions)
			}
			for _, v := range list {
				if len(v.Values) != w || v.Deleted || (w == 0 && v.Values != nil) {
					t.Fatalf("step %d: the width-%d free list holds %+v", step, w, *v)
				}
				if !known[v] {
					fresh := v.Begin == 0 && v.End == 0 && v.TxnID == 0 && cap(v.Values) == w
					for _, c := range v.Values {
						fresh = fresh && c.IsNull()
					}
					if !fresh {
						t.Fatalf("step %d: a refill put %+v (cap %d) on the width-%d free list", step, *v, cap(v.Values), w)
					}
				}
				free[v] = true
				owns(v)
			}
		}
		for s := range h.slots {
			for n, v := range chain(s) {
				if free[v] {
					t.Fatalf("step %d: slot %d's version %d is on the free lists", step, s, n)
				}
				owns(v)
				known[v] = true
			}
		}
		for v := range free {
			known[v] = true
		}
	}

	loader := begin()
	for k := 0; k < pruneSeedSlots; k++ {
		insert(loader, 0)
	}
	_, err := loader.real.Commit()
	same("load", err, nil)
	h.commit(loader.model)
	checkFree(-1)
	checkIndex(-1)

	for step := 0; len(sched) >= 3; step++ {
		op, who, where := sched[0], int(sched[1]), int(sched[2])
		sched = sched[3:]
		if len(open) == 0 || (op%8 == 0 && len(open) < maxOpen) {
			open = append(open, begin())
			continue
		}
		i := who % len(open)
		p := open[i]
		s := where % len(h.slots)
		val := int64(step + 1)
		switch op % 8 {
		case 0, 1: // (begin, when full) and read: the sweep below reads everything
		case 2, 3:
			same("update", update(p, s, row(int64(s), val)), h.write(p.model, s, row(int64(s), val), false))
		case 4:
			same("delete", remove(p, s), h.write(p.model, s, nil, true))
		case 5:
			if len(h.slots) < pruneMaxSlots {
				insert(p, val)
			}
		case 6:
			open = slices.Delete(open, i, i+1)
			ts, err := p.real.Commit()
			same("commit", err, nil)
			if hts := h.commit(p.model); ts != hts {
				t.Fatalf("step %d: commit timestamp real %d, history %d", step, ts, hts)
			}
			watermark := ts
			if len(open) > 0 {
				watermark = open[0].model.readTS
			}
			for _, s := range p.model.slots {
				got, want := chain(s), h.chain(s)
				if n := slices.IndexFunc(want, func(v histVersion) bool { return v.begin <= watermark }); n >= 0 {
					want = want[:n+1]
				}
				if len(got) != len(want) || uint64(len(got)) > ts-watermark+1 {
					t.Fatalf("step %d: commit %d at watermark %d left slot %d with %d versions, want %d",
						step, ts, watermark, s, len(got), len(want))
				}
				for n, v := range got {
					if v.Begin != want[n].begin || v.End != want[n].end || v.Deleted != want[n].deleted {
						t.Fatalf("step %d: slot %d version %d: real %+v, history %+v", step, s, n, *v, want[n])
					}
				}
			}
		case 7:
			open = slices.Delete(open, i, i+1)
			same("abort", p.real.Abort(), nil)
			h.abort(p.model)
		}
		readAll(step)
		checkIndex(step)
		checkStats(step)
		checkFree(step)
	}
	open = append(open, begin())
	readAll(-1)
}

// TestVersionPruneMatchesUnprunedOracle drives seeded schedules long enough
// to rewrite hot slots under every mix of open snapshots.
func TestVersionPruneMatchesUnprunedOracle(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		sched := make([]byte, 3*400)
		rand.New(rand.NewSource(int64(trial))).Read(sched)
		runSchedule(t, sched, pruneMaxOpen)
	}
}

// TestSnapshotIsolationModelProperty drives short schedules with at most
// four transactions open: every read is the committed state at its
// snapshot plus its own writes, and an aborted write leaves no trace.
func TestSnapshotIsolationModelProperty(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		sched := make([]byte, 3*200)
		rand.New(rand.NewSource(int64(1000 + trial))).Read(sched)
		runSchedule(t, sched, 4)
	}
}

// FuzzVersionPruneDifferential lets the fuzzer pick the schedule.
func FuzzVersionPruneDifferential(f *testing.F) {
	// One old snapshot held open while a slot is rewritten four times, then
	// released: the cut must wait for it, then take everything.
	f.Add([]byte{0, 0, 0, 8, 0, 0, 2, 1, 3, 6, 1, 0, 8, 0, 0, 2, 1, 3, 6, 1, 0,
		8, 0, 0, 2, 1, 3, 6, 1, 0, 8, 0, 0, 2, 1, 3, 6, 1, 0, 6, 0, 0, 8, 0, 0, 2, 0, 3, 6, 0, 0})
	// Insert, collapse an update and a delete onto it, abort; then the same, committed.
	f.Add([]byte{0, 0, 0, 5, 0, 0, 2, 0, 6, 4, 0, 6, 7, 0, 0, 0, 0, 0, 5, 0, 0, 2, 0, 7, 4, 0, 7, 6, 0, 0})
	seed := make([]byte, 3*200)
	rand.New(rand.NewSource(23)).Read(seed)
	f.Add(seed)
	// A key that goes A → B → A while an older snapshot reads A: slot 0
	// (key 0) moves to key 3, is committed, moves back to 0 and aborts,
	// then moves back to 0 and commits; the old snapshot's commit then
	// lets key 3 go and must keep key 0. (The index keys a row by its
	// value mod 4, and an update at step k writes k+1.)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 1, 0, 6, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 2, 1, 0, 7, 1, 0,
		0, 0, 0, 1, 0, 0, 2, 1, 0, 6, 1, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, sched []byte) {
		if len(sched) > 3*2000 {
			sched = sched[:3*2000]
		}
		runSchedule(t, sched, pruneMaxOpen)
	})
}
