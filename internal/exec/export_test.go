package exec

import (
	"slices"
	"testing"

	"tscout/internal/catalog"
	"tscout/internal/storage"
	"tscout/internal/txn"
)

// Lockstep holds every statement an engine runs — through the dbms, the way
// the benchmark generators reach it — to the spec, over a model read from
// the catalog's tables when the tap is set. A transaction's statements
// change the model as they run; a transaction that does not commit rolls
// it back. It is exported to prepared_workload_test.go, which lives in
// package exec_test because the generators import the dbms and so this
// package.
type Lockstep struct {
	t            testing.TB
	model, saved specDB
	// txID is the ID of the transaction the statements so far ran in, and
	// first the version of its first write (nil while it has none). A
	// finished transaction may be released and reused under a new ID, so
	// neither the *Txn nor its write set outlives it; a version does.
	txID       uint64
	first      *storage.Version
	Statements int
}

// NewLockstep taps e, whose tables are cat's and whose transactions mgr's.
func NewLockstep(t testing.TB, e *Engine, cat *catalog.Catalog, mgr *txn.Manager) *Lockstep {
	l := &Lockstep{t: t, model: specFrom(cat, mgr)}
	e.observe = l.observe
	return l
}

// Close ends the model's view of the last transaction: its writes stay if
// it committed and are rolled back if not. A committed write's version has
// a commit timestamp and no owning transaction; a transaction without
// writes left the model as it was.
func (l *Lockstep) Close() {
	if v := l.first; v != nil && (v.TxnID != 0 || v.Begin == 0) {
		l.model = l.saved
	}
	l.txID, l.first = 0, nil
}

func (l *Lockstep) observe(ctx *Ctx, p *Prepared, params []storage.Value, res *Result, err error) {
	l.Statements++
	if ctx.Txn.ID != l.txID {
		l.Close()
		l.txID, l.saved = ctx.Txn.ID, l.model.clone()
	}
	if w := ctx.Txn.Writes(); l.first == nil && len(w) > 0 {
		l.first = w[0].Version
	}
	want, serr := l.model.run(p.stmt, params)
	se, _ := serr.(*specErr)
	if msg := outcomeDiff(res, err, want, se); msg != "" {
		l.t.Fatalf("statement %d (%T) %v: %s", l.Statements, p.stmt, params, msg)
	}
}

// ProbeOracle holds index probes to a sequential scan: after every
// every-th statement whose table is read through an index, it reads the
// statement's key or prefix range through the index, keeping each row
// filed under the key it has, and requires exactly the rows whose keys a
// scan of every slot finds in the range, each once. It does so under the
// statement's own snapshot and under each of the older snapshots it holds
// open: one begun every holdEvery statements and ended holdFor statements
// later, since the drivers run each transaction through before the next
// begins and so leave no snapshot behind a commit on their own. A probe
// that misses a row the snapshot sees means an entry left its index while
// the snapshot could still reach its version. It is exported to
// probe_workload_test.go, which drives the benchmark generators through
// the dbms.
type ProbeOracle struct {
	t            testing.TB
	mgr          *txn.Manager
	every, seen  int
	held         []*txn.Txn
	heldAt       []int
	Probes, Rows int
}

const (
	holdEvery = 40
	holdFor   = 150
)

// NewProbeOracle taps e, whose transactions are mgr's, with a ProbeOracle
// that checks every every-th index probe.
func NewProbeOracle(t testing.TB, e *Engine, mgr *txn.Manager, every int) *ProbeOracle {
	o := &ProbeOracle{t: t, mgr: mgr, every: every}
	e.observe = o.observe
	return o
}

// Close ends the snapshots o holds.
func (o *ProbeOracle) Close() {
	for _, h := range o.held {
		if _, err := h.Commit(); err != nil {
			o.t.Fatal(err)
		}
	}
	o.held, o.heldAt = nil, nil
}

func (o *ProbeOracle) observe(ctx *Ctx, p *Prepared, params []storage.Value, _ *Result, err error) {
	o.seen++
	if len(o.held) > 0 && o.seen-o.heldAt[0] >= holdFor {
		if _, err := o.held[0].Commit(); err != nil {
			o.t.Fatal(err)
		}
		o.held, o.heldAt = o.held[1:], o.heldAt[1:]
	}
	if o.seen%holdEvery == 0 {
		o.held, o.heldAt = append(o.held, o.mgr.Begin()), append(o.heldAt, o.seen)
	}
	var a *accessPlan
	switch pl := p.plan.(type) {
	case *selectPlan:
		a = &pl.from
	case *updatePlan:
		a = &pl.access
	case *deletePlan:
		a = &pl.access
	}
	if err != nil || a == nil || a.index == nil || o.seen%o.every != 0 {
		return
	}
	ap, err := a.bind(ctx, params)
	if err != nil {
		return
	}
	o.check(ctx.Txn, &ap)
	for _, h := range o.held {
		o.check(h, &ap)
	}
}

// check compares ap's probe under snapshot tx with a scan under it.
func (o *ProbeOracle) check(tx *txn.Txn, ap *accessPath) {
	ix, heap := ap.index, ap.table.Heap
	lo, hi := ap.keyLo, ap.keyHi
	if ap.exact {
		lo, hi = ap.key, ap.key
	}
	var got, want []storage.TupleID
	filed := func(k int64, tids []int64) bool {
		for _, tid := range tids {
			if row, _ := tx.Read(heap, storage.TupleID(tid)); row != nil && ix.KeyFor(row) == k {
				got = append(got, storage.TupleID(tid))
			}
		}
		return true
	}
	if ap.exact {
		filed(ap.key, ix.Search(ap.key))
	} else {
		ix.RangeSearch(lo, hi, filed)
	}
	for id := 0; id < heap.NumSlots(); id++ {
		if row, _ := tx.Read(heap, storage.TupleID(id)); row != nil {
			if k := ix.KeyFor(row); lo <= k && k <= hi {
				want = append(want, storage.TupleID(id))
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		o.t.Fatalf("txn %d (snapshot %d): %s over keys %d..%d yields slots %v; a scan under the snapshot finds %v",
			tx.ID, tx.ReadTS, ix.Name, lo, hi, got, want)
	}
	o.Probes++
	o.Rows += len(want)
}
