package exec

import (
	"reflect"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/storage"
	"tscout/internal/txn"
)

// Lockstep replays every statement one engine runs (through the dbms, the
// way the benchmark generators reach it) against the oracle on a second,
// identically loaded database, and compares them. It is exported to
// prepared_workload_test.go, which lives in package exec_test because the
// generators import the dbms and so this package.
type Lockstep struct {
	t     testing.TB
	b     *Engine
	bMgr  *txn.Manager
	bTask *kernel.Task
	// aTxn is the observed engine's current transaction, bTxn its twin.
	aTxn, bTxn *txn.Txn
	Statements int
}

// NewLockstep taps a: from now on each of its Runs is repeated on b.
func NewLockstep(t testing.TB, a, b *Engine, bMgr *txn.Manager, bTask *kernel.Task) *Lockstep {
	l := &Lockstep{t: t, b: b, bMgr: bMgr, bTask: bTask}
	a.observe = l.observe
	return l
}

// settle ends the twin of a finished transaction the way the original
// ended: committed, or rolled back.
func (l *Lockstep) settle() {
	if l.bTxn == nil {
		return
	}
	if l.aTxn.State() == txn.StateCommitted {
		if _, err := l.bTxn.Commit(); err != nil {
			l.t.Fatalf("oracle commit: %v", err)
		}
	} else {
		_ = l.bTxn.Abort()
	}
	l.aTxn, l.bTxn = nil, nil
}

// Close settles the last transaction.
func (l *Lockstep) Close() { l.settle() }

func (l *Lockstep) observe(ctx *Ctx, p *Prepared, params []storage.Value, res *Result, err error) {
	l.Statements++
	if ctx.Txn != l.aTxn {
		l.settle()
		l.aTxn, l.bTxn = ctx.Txn, l.bMgr.Begin()
	}
	rec := &planView{}
	ores, oerr := oracleExecute(l.b, &Ctx{Task: l.bTask, Txn: l.bTxn}, p.stmt, params, rec)
	if (err == nil) != (oerr == nil) || (err != nil && err.Error() != oerr.Error()) {
		l.t.Fatalf("statement %d (%T): error %v, oracle error %v", l.Statements, p.stmt, err, oerr)
	}
	if err != nil {
		return
	}
	if !sameResult(res, ores) {
		l.t.Fatalf("statement %d (%T) %v:\nresult %+v\noracle %+v", l.Statements, p.stmt, params, res, ores)
	}
	view, verr := p.view(params)
	if verr != nil || !reflect.DeepEqual(view, rec) {
		l.t.Fatalf("statement %d (%T) %v:\nplan   %+v (%v)\noracle %+v", l.Statements, p.stmt, params, view, verr, rec)
	}
}
