// Package dbms assembles the NoisePage-like database server from its
// substrates — catalog, storage, MVCC transactions, group-commit WAL, SQL
// front end, execution engine, and network protocol — and integrates the
// TScout markers at every operating-unit boundary. It is the "annotated
// DBMS" of the paper's Setup Phase.
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
			CompileCollectors:        true,
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
	// per-statement scratch there, so a session's statements reuse it.
	ctx exec.Ctx
	// params holds the statement in progress's parameter values (bindParams).
	params []storage.Value
	// reply is the wire response under construction, rendered in place and
	// reused by the next one.
	reply []byte
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

// bindParams copies a statement's parameter values, then its text's string
// literals, into the session's scratch, which the engine reads until Run
// returns and keeps nothing of. Statement and Execute pass the engine the
// copy, never their variadic slice: that slice would escape through the
// plan interface, and every caller's argument array would be allocated on
// the heap.
func (se *Session) bindParams(params, lits []storage.Value) []storage.Value {
	se.params = append(append(se.params[:0], params...), lits...)
	return se.params
}

// PacketResult is the outcome of one client packet.
type PacketResult struct {
	// Results holds per-statement results (nil entries for statements
	// that did not run because an earlier one failed).
	Results []*exec.Result
	// Commit is the WAL group-commit handle for a writing transaction
	// (nil for read-only or aborted ones). The caller must wait for
	// Commit.Resolved before treating the transaction as durable.
	Commit *wal.Commit //tsvet:ignore unread-field the wire path's durability test waits on it
	// Err is the error that aborted the packet's transaction (e.g. a
	// write conflict), if any.
	Err error
}

// SubmitPacket processes one client packet: the networking read OU parses
// the protocol messages, each SQL statement executes inside one
// transaction, the commit's redo records enter the group-commit WAL, and
// the networking write OU emits the response.
func (se *Session) SubmitPacket(packet []byte) *PacketResult {
	srv := se.srv
	task := se.Task
	pr := &PacketResult{}

	// --- Networking read OU -------------------------------------------
	msgs, derr := network.Decode(packet)
	var stmts []textEntry
	if derr == nil {
		for _, m := range msgs {
			if m.Type != network.MsgQuery {
				derr = fmt.Errorf("dbms: unexpected message type %q", m.Type)
				break
			}
			st, lits, perr := srv.stmts.lookup(string(m.Payload), 0)
			if perr != nil {
				derr = perr
				break
			}
			stmts = append(stmts, textEntry{st: st, lits: lits})
		}
	}
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
	tx := srv.TxnMgr.Begin()
	if srv.TS != nil {
		srv.TS.BeginEvent(task, tscout.SubsystemExecutionEngine)
	}
	reply := se.reply[:0]
	ctx := se.execCtx(tx)
	for i, e := range stmts {
		res, err := srv.run(ctx, e.st, se.bindParams(nil, e.lits))
		if err != nil {
			_ = tx.Abort()
			return fail(reply, i, err)
		}
		pr.Results = append(pr.Results, res)
		reply = appendResult(reply, res)
	}
	writes := tx.Writes()
	if _, err := tx.Commit(); err != nil {
		return fail(reply[:0], 0, err)
	}

	// --- WAL group commit ----------------------------------------------
	pr.Commit = se.submitRedo(tx, writes)

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
// current virtual time. It returns nil for a read-only transaction.
func (se *Session) submitRedo(tx *txn.Txn, writes []txn.Write) *wal.Commit {
	if len(writes) == 0 {
		return nil
	}
	records := make([]wal.Record, 0, len(writes)+1)
	for _, w := range writes {
		records = append(records, wal.Record{
			Kind:  recordKind(w.Kind),
			TxnID: tx.ID,
			Table: w.Table.Name(),
			Bytes: w.RedoBytes,
		})
	}
	records = append(records, wal.Record{Kind: wal.RecordCommit, TxnID: tx.ID, Bytes: 16})
	return se.srv.WAL.SubmitFrom(records, se.Task.Now(), se.Task.CPU())
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
func (se *Session) Execute(query string, params ...storage.Value) (*exec.Result, error) {
	st, lits, err := se.srv.stmts.lookup(query, len(params))
	if err != nil {
		return nil, err
	}
	tx := se.srv.TxnMgr.Begin()
	if se.srv.TS != nil {
		se.srv.TS.BeginEvent(se.Task, tscout.SubsystemExecutionEngine)
	}
	res, err := se.srv.run(se.execCtx(tx), st, se.bindParams(params, lits))
	if err != nil {
		_ = tx.Abort()
		return nil, err
	}
	writes := tx.Writes()
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	if c := se.submitRedo(tx, writes); c != nil && c.Resolved {
		se.Task.Clock.AdvanceTo(c.DoneNS)
	}
	return res, nil
}
