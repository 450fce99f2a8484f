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
	tx           *txn.Txn // the transaction the statements so far ran in
	Statements   int
}

// NewLockstep taps e, whose tables are cat's and whose transactions mgr's.
func NewLockstep(t testing.TB, e *Engine, cat *catalog.Catalog, mgr *txn.Manager) *Lockstep {
	l := &Lockstep{t: t, model: specFrom(cat, mgr)}
	e.observe = l.observe
	return l
}

// Close ends the model's view of the last transaction: its writes stay if
// it committed and are rolled back if not.
func (l *Lockstep) Close() {
	if l.tx != nil && l.tx.State() != txn.StateCommitted {
		l.model = l.saved
	}
	l.tx = nil
}

func (l *Lockstep) observe(ctx *Ctx, p *Prepared, params []storage.Value, res *Result, err error) {
	l.Statements++
	if ctx.Txn != l.tx {
		l.Close()
		l.tx, l.saved = ctx.Txn, l.model.clone()
	}
	want, serr := l.model.run(p.stmt, params)
	se, _ := serr.(*specErr)
	if msg := outcomeDiff(res, err, want, se); msg != "" {
		l.t.Fatalf("statement %d (%T) %v: %s", l.Statements, p.stmt, params, msg)
	}
}
