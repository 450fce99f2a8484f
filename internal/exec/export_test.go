package exec

import (
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
