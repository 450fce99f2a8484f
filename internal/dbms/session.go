package dbms

import (
	"errors"
	"fmt"

	"tscout/internal/exec"
	"tscout/internal/sim"
	"tscout/internal/sql"
	"tscout/internal/storage"
	"tscout/internal/tscout"
	"tscout/internal/txn"
	"tscout/internal/wal"
)

// The session transaction API models the BenchBase/JDBC access pattern the
// paper's evaluation uses: autocommit off, one statement per network
// packet, data flowing through the client between statements, then an
// explicit commit. Each statement pays the networking OUs; the commit's
// redo records enter the group-commit WAL.

// ErrTxnOpen and ErrNoTxn guard the session transaction state machine.
var (
	ErrTxnOpen = fmt.Errorf("dbms: transaction already open")
	ErrNoTxn   = fmt.Errorf("dbms: no open transaction")
)

// BeginTxn opens a session transaction.
func (se *Session) BeginTxn() error {
	if se.tx != nil {
		return ErrTxnOpen
	}
	se.tx = se.srv.TxnMgr.Begin()
	return nil
}

// InTxn reports whether a transaction is open.
func (se *Session) InTxn() bool { return se.tx != nil }

// Statement executes one SQL statement inside the open transaction. It
// charges the networking read/write OUs for the statement's wire traffic
// (the extended-protocol Bind message carries the parameters) and one
// execution-engine sampling event per query (paper §3.1).
func (se *Session) Statement(query string, params ...storage.Value) (*exec.Result, error) {
	if se.tx == nil {
		return nil, ErrNoTxn
	}
	srv := se.srv
	task := se.Task

	packetBytes := len(query) + 5
	for _, p := range params {
		packetBytes += int(p.Size()) + 4
	}
	st, perr := srv.stmts.lookup(query)
	se.netRead(packetBytes, 1)
	if perr != nil {
		se.rollback()
		return nil, perr
	}

	if srv.TS != nil {
		srv.TS.BeginEvent(task, tscout.SubsystemExecutionEngine)
	}
	ctx := se.execCtx(se.tx)
	p, err := srv.prepared(st)
	// External feature collection (§2.2): systems like QPPNet issue an
	// EXPLAIN for every query to extract plan features, plus further SQL
	// queries for configuration and environment — each a full protocol
	// round trip from a separate client. When enabled, the session pays
	// that extra planning round and the statistics round trips.
	if se.ExternalCollect {
		if _, ok := st.ast.(*sql.ExplainStmt); !ok {
			// The EXPLAIN round is where an external collector's statement
			// is first planned, so a statement that fails analysis fails
			// here, as a failing EXPLAIN does.
			if err == nil {
				_, err = srv.Engine.Explain(ctx, p, params)
			}
			if err != nil {
				se.rollback()
				return nil, err
			}
			// Two statistics/configuration queries' worth of protocol
			// traffic (paper: "extracting the DBMS's configuration and
			// environment requires executing even more SQL queries").
			task.Charge(sim.Work{
				Instructions: 2 * 1400,
				BytesTouched: 2 * 256,
				NetRecvBytes: 2 * 96,
				NetSendBytes: 2 * 320,
				NetMessages:  4,
			})
		}
	}
	var res *exec.Result
	if err == nil {
		res, err = srv.Engine.Run(ctx, p, params)
	}
	if err != nil {
		se.rollback()
		se.respondError(se.reply[:0], 0, err)
		return nil, err
	}
	se.respond(appendResult(se.reply[:0], res), 1)
	return res, nil
}

// Commit closes the open transaction, submitting its redo records to the
// WAL at the session's current virtual time. The returned handle is nil
// for read-only transactions; otherwise the caller (the workload driver)
// must wait for Commit.Resolved before advancing past the commit.
func (se *Session) Commit() (*wal.Commit, error) {
	if se.tx == nil {
		return nil, ErrNoTxn
	}
	tx := se.tx
	se.tx = nil
	writes := tx.Writes()
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	return se.submitRedo(tx, writes), nil
}

// Rollback aborts the open transaction.
func (se *Session) Rollback() error {
	if se.tx == nil {
		return ErrNoTxn
	}
	se.rollback()
	return nil
}

func (se *Session) rollback() {
	if se.tx != nil {
		_ = se.tx.Abort()
		se.tx = nil
	}
}

// IsConflict reports whether err is a serialization conflict the client
// should retry (counted as an abort, not a failure, by the driver).
func IsConflict(err error) bool {
	return errors.Is(err, txn.ErrWriteConflict)
}
