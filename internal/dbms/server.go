// Package dbms assembles the NoisePage-like database server from its
// substrates — catalog, storage, MVCC transactions, group-commit WAL, SQL
// front end, execution engine, and network protocol — and integrates the
// TScout markers at every operating-unit boundary. It is the "annotated
// DBMS" of the paper's Setup Phase.
//
// A session lends its results: the *exec.Result a Statement or Execute
// returns, and every result of a SubmitPacket, is valid until the
// session's next call, which takes its memory back. A caller reads what it
// needs from a result before it sends the session's next statement.
package dbms

import (
	"fmt"
	"strconv"

	"tscout/internal/archive"
	"tscout/internal/catalog"
	"tscout/internal/exec"
	"tscout/internal/kernel"
	"tscout/internal/network"
	"tscout/internal/sim"
	"tscout/internal/storage"
	"tscout/internal/tscout"
	"tscout/internal/txn"
	"tscout/internal/wal"
)

// Networking and WAL OU identifiers (the execution engine's live in exec).
const (
	OUNetRead tscout.OUID = iota + 100
	OUNetWrite
	OULogSerializer
	OUDiskWriter
)

// Config assembles one server.
type Config struct {
	// Profile is the simulated hardware; the zero value uses LargeHW.
	Profile sim.HardwareProfile
	// Seed drives all simulation noise; NoiseSigma is the relative
	// measurement jitter (e.g. 0.03).
	Seed       int64
	NoiseSigma float64
	// Instrument deploys TScout with the given collection mode.
	Instrument bool
	Mode       tscout.Mode
	// RingCapacity overrides the perf ring buffer size (0 = default).
	RingCapacity int
	// DisableFeedback turns off the Processor's automatic sampling-rate
	// reduction (useful for fixed-rate experiments).
	DisableFeedback bool
	// ProcessorParallelism sets the number of modeled Processor drain
	// threads (0 = the paper's single-threaded Processor).
	ProcessorParallelism int
	// Sink receives drained training points (e.g. an archive.Writer or
	// CSV sink); with nil they are counted and discarded.
	Sink tscout.Sink
	// NumCPUs sets the simulated CPU count before TScout deploys, so the
	// per-CPU rings, task placement, and noise streams all size themselves
	// to it (0 or 1 = the single-CPU topology every recorded experiment
	// used).
	NumCPUs int
	// WAL tunes group commit.
	WAL wal.Config
}

// Server is one DBMS instance plus its TScout deployment.
type Server struct {
	Kernel  *kernel.Kernel
	Catalog *catalog.Catalog
	TxnMgr  *txn.Manager
	WAL     *wal.Serializer
	Engine  *exec.Engine
	TS      *tscout.TScout // nil when uninstrumented

	netRead  *tscout.Marker
	netWrite *tscout.Marker

	// stmts holds every statement text the sessions have sent, parsed once
	// and analyzed once per catalog version.
	stmts statementTable

	nextSession int
}

// NewServer builds and (if configured) instruments a server.
func NewServer(cfg Config) (*Server, error) {
	profile := cfg.Profile
	if profile.Cores == 0 {
		profile = sim.LargeHW
	}
	k := kernel.New(profile, cfg.Seed, cfg.NoiseSigma)
	if cfg.NumCPUs > 1 {
		k.SetNumCPUs(cfg.NumCPUs)
	}
	srv := &Server{
		Kernel:  k,
		Catalog: catalog.New(),
		TxnMgr:  txn.NewManager(),
	}

	var ts *tscout.TScout
	if cfg.Instrument {
		ts = tscout.New(k, tscout.Config{
			Mode: cfg.Mode, Seed: cfg.Seed, RingCapacity: cfg.RingCapacity,
			DisableProcessorFeedback: cfg.DisableFeedback,
			ProcessorParallelism:     cfg.ProcessorParallelism,
			ProcessorSink:            cfg.Sink,
		})
	}
	eng, err := exec.New(srv.Catalog, ts)
	if err != nil {
		return nil, err
	}
	srv.Engine = eng

	var serM, wrM *tscout.Marker
	if ts != nil {
		srv.netRead, err = ts.RegisterOU(tscout.OUDef{
			ID: OUNetRead, Name: "net_read", Subsystem: tscout.SubsystemNetworking,
			Features: []string{"packet_bytes", "num_messages"},
		}, tscout.ResourceSet{CPU: true, Network: true})
		if err != nil {
			return nil, err
		}
		srv.netWrite, err = ts.RegisterOU(tscout.OUDef{
			ID: OUNetWrite, Name: "net_write", Subsystem: tscout.SubsystemNetworking,
			Features: []string{"response_bytes", "num_messages"},
		}, tscout.ResourceSet{CPU: true, Network: true})
		if err != nil {
			return nil, err
		}
		serM, err = ts.RegisterOU(tscout.OUDef{
			ID: OULogSerializer, Name: "log_serializer", Subsystem: tscout.SubsystemLogSerializer,
			Features: []string{"num_records", "bytes", "num_txns"},
		}, tscout.ResourceSet{CPU: true, Memory: true})
		if err != nil {
			return nil, err
		}
		wrM, err = ts.RegisterOU(tscout.OUDef{
			ID: OUDiskWriter, Name: "disk_writer", Subsystem: tscout.SubsystemDiskWriter,
			Features: []string{"bytes", "num_records"},
		}, tscout.ResourceSet{CPU: true, Disk: true})
		if err != nil {
			return nil, err
		}
		if err := ts.Deploy(); err != nil {
			return nil, err
		}
		srv.TS = ts
	}
	srv.WAL = wal.New(k, ts, serM, wrM, cfg.WAL)
	return srv, nil
}

// MountArchive mounts a columnar training archive as the read-only
// tscout_archive relation, so the engine can query the DBMS's own
// training data in SQL (self-driving introspection).
func (s *Server) MountArchive(r *archive.Reader) (*catalog.Table, error) {
	return archive.Mount(s.Catalog, r)
}

// Session is one client connection with its own worker task and
// (optionally) an open transaction spanning multiple statements.
type Session struct {
	srv  *Server
	Task *kernel.Task
	tx   *txn.Txn
	// ctx is the execution context every statement of this session runs
	// in, whichever entry point it arrives through: the engine keeps its
	// per-statement scratch and the session's results there. It is rewound
	// at the start of each call, so a Result lives until the next one.
	ctx exec.Ctx
	// params holds the statement in progress's parameter values and
	// literals (lookup), or a packet's literals (SubmitPacket).
	params []storage.Value
	// reply is the wire response under construction, rendered in place and
	// reused by the next one.
	reply []byte
	// redo holds the committing transaction's redo records (submitRedo),
	// which the WAL reads during SubmitFrom and keeps nothing of.
	redo []wal.Record
	// commit is the handle of the session's last writing commit, which
	// submitRedo reuses once the WAL has resolved it.
	commit *wal.Commit
	// ExternalCollect emulates EXPLAIN-based external feature collection
	// (§2.2): every statement pays an extra planning round.
	ExternalCollect bool
}

// NewSession opens a connection.
func (s *Server) NewSession() *Session {
	s.nextSession++
	return &Session{
		srv:  s,
		Task: s.Kernel.NewTask(fmt.Sprintf("worker-%d", s.nextSession)),
	}
}

// NewSessionOn opens a connection whose worker task is pinned to the given
// simulated CPU (the SessionPool's placement path).
func (s *Server) NewSessionOn(cpu int) *Session {
	s.nextSession++
	return &Session{
		srv:  s,
		Task: s.Kernel.NewTaskOn(fmt.Sprintf("worker-%d", s.nextSession), cpu),
	}
}

// execCtx points the session's execution context at tx.
func (se *Session) execCtx(tx *txn.Txn) *exec.Ctx {
	se.ctx.Task, se.ctx.Txn = se.Task, tx
	return &se.ctx
}

// lookup finds query's statement and binds it: it copies the call's
// parameter values into the session's scratch and appends the text's string
// literals after them, and the engine reads the copy until Run returns and
// keeps nothing of it. Statement and Execute pass the engine the copy,
// never their variadic slice: that slice would escape through the plan
// interface, and every caller's argument array would be allocated on the
// heap.
func (se *Session) lookup(query string, params []storage.Value) (*statement, []storage.Value, error) {
	st, bound, err := se.srv.stmts.lookup(query, len(params), append(se.params[:0], params...))
	se.params = bound
	return st, bound, err
}

// PacketResult is the outcome of one client packet.
type PacketResult struct {
	// Results holds per-statement results (nil entries for statements
	// that did not run because an earlier one failed). They are all valid
	// together until the session's next call, as Statement's result is.
	Results []*exec.Result
	// Commit is the WAL group-commit handle for a writing transaction
	// (nil for read-only or aborted ones). The caller must wait for
	// Commit.Resolved before treating the transaction as durable. It is
	// the session's handle, valid until the session's next commit, as
	// Session.Commit's is.
	Commit *wal.Commit //tsvet:ignore unread-field the wire path's durability test waits on it
	// Err is the error that aborted the packet's transaction (e.g. a
	// write conflict), if any.
	Err error
}

// packetStmt is one statement of a packet, looked up before any runs: its
// statement and the literals it binds.
type packetStmt struct {
	st   *statement
	lits []storage.Value
}

// SubmitPacket processes one client packet: the networking read OU parses
// the protocol messages, each SQL statement executes inside one
// transaction, the commit's redo records enter the group-commit WAL, and
// the networking write OU emits the response. It ends the life of the
// session's earlier results (Statement).
func (se *Session) SubmitPacket(packet []byte) *PacketResult {
	se.ctx.Rewind()
	srv := se.srv
	task := se.Task
	pr := &PacketResult{}

	// --- Networking read OU -------------------------------------------
	// Every statement is looked up before any runs, so each one's literals
	// are cut from one buffer that later lookups only append to.
	msgs, derr := network.Decode(packet)
	var stmts []packetStmt
	lits := se.params[:0]
	if derr == nil {
		for _, m := range msgs {
			if m.Type != network.MsgQuery {
				derr = fmt.Errorf("dbms: unexpected message type %q", m.Type)
				break
			}
			n := len(lits)
			st, all, perr := srv.stmts.lookup(string(m.Payload), 0, lits)
			if perr != nil {
				derr = perr
				break
			}
			lits = all
			stmts = append(stmts, packetStmt{st, lits[n:]})
		}
	}
	se.params = lits
	se.netRead(len(packet), len(msgs))
	// fail ends the packet with err after the sent results already in reply.
	fail := func(reply []byte, sent int, err error) *PacketResult {
		pr.Err = err
		se.respondError(reply, sent, err)
		return pr
	}
	if derr != nil {
		return fail(se.reply[:0], 0, derr)
	}

	// --- Execute the statements in one transaction --------------------
	if err := se.BeginTxn(); err != nil {
		return fail(se.reply[:0], 0, err)
	}
	if srv.TS != nil {
		srv.TS.BeginEvent(task, tscout.SubsystemExecutionEngine)
	}
	reply := se.reply[:0]
	ctx := se.execCtx(se.tx)
	for i, e := range stmts {
		res, err := srv.run(ctx, e.st, e.lits)
		if err != nil {
			se.rollback()
			return fail(reply, i, err)
		}
		pr.Results = append(pr.Results, res)
		reply = appendResult(reply, res)
	}

	// --- WAL group commit ----------------------------------------------
	c, err := se.Commit()
	if err != nil {
		return fail(reply[:0], 0, err)
	}
	pr.Commit = c

	se.respond(reply, len(stmts))
	return pr
}

// netRead runs the networking read OU for one received packet of
// packetBytes carrying msgs protocol messages. Decoding and parsing are
// host-side work with no virtual cost of their own, so callers do them
// first and the charge here stands for both.
func (se *Session) netRead(packetBytes, msgs int) {
	srv, task := se.srv, se.Task
	if srv.TS != nil {
		srv.TS.BeginEvent(task, tscout.SubsystemNetworking)
	}
	if srv.netRead != nil {
		srv.netRead.Begin(task)
	}
	task.Charge(sim.Work{
		Instructions:    350 + 2.4*float64(packetBytes) + 420*float64(msgs),
		BytesTouched:    2 * float64(packetBytes),
		WorkingSetBytes: float64(packetBytes) + 4096,
		NetRecvBytes:    int64(packetBytes),
		NetMessages:     int64(msgs),
		AllocBytes:      int64(packetBytes),
	})
	if srv.netRead != nil {
		srv.netRead.End(task)
		srv.netRead.Features(task, int64(packetBytes),
			uint64(packetBytes), uint64(msgs))
	}
}

// submitRedo enters a committed transaction's redo records, one per write
// plus the commit record, into the group-commit WAL at the session's
// current virtual time. It returns nil for a read-only transaction, and
// otherwise the session's commit handle: the last commit's, reused, if the
// WAL has resolved it, or a new one while the WAL still holds that (a
// session may commit again before its group flushes).
func (se *Session) submitRedo(tx *txn.Txn, writes []txn.Write) *wal.Commit {
	if len(writes) == 0 {
		return nil
	}
	records := se.redo[:0]
	for _, w := range writes {
		records = append(records, wal.Record{
			Kind:  recordKind(w.Kind),
			TxnID: tx.ID,
			Table: w.Table.Name(),
			Bytes: w.RedoBytes,
		})
	}
	records = append(records, wal.Record{Kind: wal.RecordCommit, TxnID: tx.ID, Bytes: 16})
	se.redo = records
	if se.commit == nil || !se.commit.Resolved {
		se.commit = new(wal.Commit)
	}
	se.srv.WAL.SubmitFrom(se.commit, records, se.Task.Now(), se.Task.CPU())
	return se.commit
}

// respondError responds with the sent messages already in reply and err
// after them.
func (se *Session) respondError(reply []byte, sent int, err error) {
	start := len(reply)
	reply = append(network.AppendHeader(reply, network.MsgError), err.Error()...)
	network.SetLength(reply, start)
	se.respond(reply, sent+1)
}

// respond runs the networking write OU for the response out, which holds
// msgs messages, and keeps out for the session's next reply to reuse.
func (se *Session) respond(out []byte, msgs int) {
	task := se.Task
	se.reply = out
	if se.srv.netWrite != nil {
		se.srv.netWrite.Begin(task)
	}
	task.Charge(sim.Work{
		Instructions: 260 + 1.6*float64(len(out)),
		BytesTouched: float64(len(out)),
		NetSendBytes: int64(len(out)),
		NetMessages:  int64(msgs),
		AllocBytes:   int64(len(out)),
	})
	if se.srv.netWrite != nil {
		se.srv.netWrite.End(task)
		se.srv.netWrite.Features(task, int64(len(out)),
			uint64(len(out)), uint64(msgs))
	}
}

func recordKind(k txn.WriteKind) wal.RecordKind {
	switch k {
	case txn.WriteInsert:
		return wal.RecordInsert
	case txn.WriteDelete:
		return wal.RecordDelete
	default:
		return wal.RecordUpdate
	}
}

// appendResult renders a result set as one wire message at the end of out.
func appendResult(out []byte, r *exec.Result) []byte {
	start := len(out)
	if len(r.Cols) == 0 {
		out = append(network.AppendHeader(out, network.MsgComplete), "OK "...)
		out = strconv.AppendInt(out, int64(r.Affected), 10)
		network.SetLength(out, start)
		return out
	}
	out = network.AppendHeader(out, network.MsgResult)
	for _, c := range r.Cols {
		out = append(out, c...)
		out = append(out, '\t')
	}
	out = append(out, '\n')
	for _, row := range r.Rows {
		for _, v := range row {
			out = v.AppendText(out)
			out = append(out, '\t')
		}
		out = append(out, '\n')
	}
	network.SetLength(out, start)
	return out
}

// Execute is the in-process convenience path used by examples and the
// offline loader: it looks up and runs one statement with $n parameters in
// its own transaction on the given session, bypassing the wire protocol.
// Its result is valid until the session's next call, as Statement's is.
func (se *Session) Execute(query string, params ...storage.Value) (*exec.Result, error) {
	se.ctx.Rewind()
	st, bound, err := se.lookup(query, params)
	if err != nil {
		return nil, err
	}
	if err := se.BeginTxn(); err != nil {
		return nil, err
	}
	if se.srv.TS != nil {
		se.srv.TS.BeginEvent(se.Task, tscout.SubsystemExecutionEngine)
	}
	res, err := se.srv.run(se.execCtx(se.tx), st, bound)
	if err != nil {
		se.rollback()
		return nil, err
	}
	c, err := se.Commit()
	if err != nil {
		return nil, err
	}
	if c != nil && c.Resolved {
		se.Task.Clock.AdvanceTo(c.DoneNS)
	}
	return res, nil
}
