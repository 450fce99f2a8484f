package txn

import (
	"fmt"
	"math/rand"
	"testing"

	"tscout/internal/storage"
)

// oracleManager and oracleTxn are the transaction layer as it stood before
// commit-time reclamation: the same visibility rule, conflict rule,
// collapse-in-place, stamps and abort, and no version is ever taken off a
// chain. They are kept as the oracle runPruneSchedule drives beside the real
// Manager; nothing outside this file walks an uncut chain.
type oracleManager struct {
	nextTxnID uint64
	commitTS  uint64
}

type oracleTxn struct {
	mgr    *oracleManager
	ID     uint64
	ReadTS uint64
	state  State
	writes []Write
}

func (m *oracleManager) Begin() *oracleTxn {
	id := m.nextTxnID
	m.nextTxnID++
	return &oracleTxn{mgr: m, ID: id, ReadTS: m.commitTS, state: StateActive}
}

func (t *oracleTxn) visible(v *storage.Version) bool {
	if v.TxnID != 0 {
		return v.TxnID == t.ID
	}
	return v.Begin <= t.ReadTS && t.ReadTS < v.End
}

func (t *oracleTxn) Read(tbl *storage.Table, id storage.TupleID) (storage.Row, int) {
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

func (t *oracleTxn) Insert(tbl *storage.Table, row storage.Row) (storage.TupleID, error) {
	if t.state != StateActive {
		return storage.InvalidTupleID, ErrNotActive
	}
	if err := tbl.Schema().Validate(row); err != nil {
		return storage.InvalidTupleID, err
	}
	v := &storage.Version{TxnID: t.ID, End: storage.InfinityTS, Values: row}
	id := tbl.Append(v)
	t.writes = append(t.writes, Write{Kind: WriteInsert, Table: tbl, TID: id, Version: v})
	return id, nil
}

func (t *oracleTxn) write(tbl *storage.Table, id storage.TupleID, row storage.Row, del bool) error {
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
		return ErrWriteConflict
	}
	if head.TxnID == t.ID {
		head.Deleted = del
		if !del {
			head.Values = row
		}
		t.writes = append(t.writes, Write{Kind: kindFor(del), Table: tbl, TID: id, Version: head})
		return nil
	}
	v := &storage.Version{
		TxnID: t.ID, End: storage.InfinityTS, Deleted: del, Values: row, Next: head,
	}
	if !tbl.CompareAndSetHead(id, head, v) {
		return ErrWriteConflict
	}
	t.writes = append(t.writes, Write{Kind: kindFor(del), Table: tbl, TID: id, Version: v})
	return nil
}

func (t *oracleTxn) Commit() (uint64, error) {
	if t.state != StateActive {
		return 0, ErrNotActive
	}
	t.mgr.commitTS++
	ts := t.mgr.commitTS
	for _, w := range t.writes {
		w.Version.Begin = ts
		w.Version.TxnID = 0
		if w.Version.Next != nil {
			w.Version.Next.End = ts
		}
	}
	t.state = StateCommitted
	return ts, nil
}

func (t *oracleTxn) Abort() error {
	if t.state != StateActive {
		return ErrNotActive
	}
	for i := len(t.writes) - 1; i >= 0; i-- {
		w := t.writes[i]
		if w.Kind == WriteInsert {
			w.Version.TxnID = 0
			w.Version.Begin = 0
			w.Version.End = 0
			w.Version.Deleted = true
			continue
		}
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

// chain returns the slot's versions, newest first.
func chain(tbl *storage.Table, id storage.TupleID) []*storage.Version {
	var vs []*storage.Version
	for v := tbl.Head(id); v != nil; v = v.Next {
		vs = append(vs, v)
	}
	return vs
}

// Schedule shape: at most pruneMaxOpen snapshots open at once over at most
// pruneMaxSlots tuple slots, pruneSeedSlots of them loaded up front.
const (
	pruneMaxOpen   = 8
	pruneMaxSlots  = 16
	pruneSeedSlots = 6
)

// runPruneSchedule reads sched as a list of operations (begin, read, update,
// delete, insert, commit, abort; three bytes each: operation, transaction,
// slot) and applies every one to the real Manager and to the oracle in
// lock-step, each over its own table. It fails unless
//
//   - every write returns the same error and every insert the same slot;
//   - every Read, by every open snapshot of every slot after each operation,
//     returns the same row after the same number of versions walked;
//   - after a commit, each slot it wrote holds exactly the oracle's versions
//     down to the newest one that began at or before the watermark (the
//     oldest other open snapshot, else the commit itself) and nothing below,
//     which bounds it by the commits since that snapshot plus one, and makes
//     it one version when no other snapshot is open;
//   - Manager.stats agrees with the schedule's own count of open snapshots,
//     the oldest of them, and the versions the oracle holds that the real
//     table no longer does.
func runPruneSchedule(t testing.TB, sched []byte) {
	schema := storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt},
		storage.Column{Name: "v", Kind: storage.KindInt},
	)
	real, orc := NewManager(), &oracleManager{nextTxnID: 1, commitTS: 1}
	realTbl, orcTbl := storage.NewTable("t", schema), storage.NewTable("t", schema)

	type pair struct {
		real *Txn
		orc  *oracleTxn
	}
	var open []pair
	begin := func() pair { return pair{real.Begin(), orc.Begin()} }

	// same fails the schedule unless both sides returned the same error.
	same := func(what string, rerr, oerr error) {
		t.Helper()
		if (rerr == nil) != (oerr == nil) || (rerr != nil && rerr.Error() != oerr.Error()) {
			t.Fatalf("%s: real %v, oracle %v", what, rerr, oerr)
		}
	}
	insert := func(p pair, val int64) {
		t.Helper()
		k := int64(realTbl.NumSlots())
		// Each side owns the row it is handed.
		rid, rerr := p.real.Insert(realTbl, storage.Row{storage.NewInt(k), storage.NewInt(val)})
		oid, oerr := p.orc.Insert(orcTbl, storage.Row{storage.NewInt(k), storage.NewInt(val)})
		same("insert", rerr, oerr)
		if rid != oid {
			t.Fatalf("insert: real slot %d, oracle slot %d", rid, oid)
		}
	}
	readAll := func(step int) {
		t.Helper()
		for _, p := range open {
			for id := storage.TupleID(0); int(id) < realTbl.NumSlots(); id++ {
				rrow, rwalked := p.real.Read(realTbl, id)
				orow, owalked := p.orc.Read(orcTbl, id)
				if rwalked != owalked || (rrow == nil) != (orow == nil) ||
					(rrow != nil && (rrow[0] != orow[0] || rrow[1] != orow[1])) {
					t.Fatalf("step %d: txn %d (snapshot %d) slot %d: real (%v, walked %d), oracle (%v, walked %d)",
						step, p.real.ID, p.real.ReadTS, id, rrow, rwalked, orow, owalked)
				}
			}
		}
	}
	checkStats := func(step int) {
		t.Helper()
		var oldest uint64
		if len(open) > 0 {
			oldest = open[0].real.ReadTS // open is in begin order
		}
		var cut uint64
		for id := storage.TupleID(0); int(id) < realTbl.NumSlots(); id++ {
			cut += uint64(len(chain(orcTbl, id)) - len(chain(realTbl, id)))
		}
		running, gotOldest, unlinked := real.stats()
		if running != len(open) || gotOldest != oldest || unlinked != cut {
			t.Fatalf("step %d: stats (running %d, oldest %d, unlinked %d), schedule has (%d, %d, %d)",
				step, running, gotOldest, unlinked, len(open), oldest, cut)
		}
	}

	loader := begin()
	for k := 0; k < pruneSeedSlots; k++ {
		insert(loader, 0)
	}
	_, rerr := loader.real.Commit()
	_, oerr := loader.orc.Commit()
	same("load", rerr, oerr)

	for step := 0; len(sched) >= 3; step++ {
		op, who, where := sched[0], int(sched[1]), int(sched[2])
		sched = sched[3:]
		if len(open) == 0 || (op%8 == 0 && len(open) < pruneMaxOpen) {
			open = append(open, begin())
			continue
		}
		i := who % len(open)
		p := open[i]
		id := storage.TupleID(where % realTbl.NumSlots())
		val := int64(step + 1)
		var committed *Txn // set by a commit, with its timestamp
		var commitTS uint64
		switch op % 8 {
		case 0, 1: // (begin, when full) and read: the sweep below reads everything
		case 2, 3:
			same("update",
				p.real.Update(realTbl, id, storage.Row{storage.NewInt(int64(id)), storage.NewInt(val)}),
				p.orc.write(orcTbl, id, storage.Row{storage.NewInt(int64(id)), storage.NewInt(val)}, false))
		case 4:
			same("delete", p.real.Delete(realTbl, id), p.orc.write(orcTbl, id, nil, true))
		case 5:
			if realTbl.NumSlots() < pruneMaxSlots {
				insert(p, val)
			}
		case 6:
			open = append(open[:i], open[i+1:]...)
			ts, rerr := p.real.Commit()
			ots, oerr := p.orc.Commit()
			same("commit", rerr, oerr)
			if ts != ots {
				t.Fatalf("step %d: commit timestamp real %d, oracle %d", step, ts, ots)
			}
			committed, commitTS = p.real, ts
		case 7:
			open = append(open[:i], open[i+1:]...)
			same("abort", p.real.Abort(), p.orc.Abort())
		}
		readAll(step)
		if committed != nil {
			watermark := commitTS
			if len(open) > 0 {
				watermark = open[0].real.ReadTS
			}
			for _, w := range committed.Writes() {
				got, want := chain(realTbl, w.TID), chain(orcTbl, w.TID)
				for n, v := range want {
					if v.Begin <= watermark {
						want = want[:n+1]
						break
					}
				}
				if len(got) != len(want) || uint64(len(got)) > commitTS-watermark+1 {
					t.Fatalf("step %d: commit %d at watermark %d left slot %d with %d versions, want %d",
						step, commitTS, watermark, w.TID, len(got), len(want))
				}
				for n := range got {
					if got[n].Begin != want[n].Begin || got[n].End != want[n].End || got[n].Deleted != want[n].Deleted {
						t.Fatalf("step %d: slot %d version %d: real %+v, oracle %+v", step, w.TID, n, *got[n], *want[n])
					}
				}
			}
		}
		checkStats(step)
	}
}

// TestVersionPruneMatchesUnprunedOracle drives seeded random schedules, long
// enough for hot slots to be rewritten under every mix of open snapshots.
func TestVersionPruneMatchesUnprunedOracle(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		sched := make([]byte, 3*400)
		rand.New(rand.NewSource(int64(trial))).Read(sched)
		runPruneSchedule(t, sched)
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
	f.Fuzz(func(t *testing.T, sched []byte) {
		if len(sched) > 3*2000 {
			sched = sched[:3*2000]
		}
		runPruneSchedule(t, sched)
	})
}
