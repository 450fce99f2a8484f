// Package exec implements the DBMS's execution engine: a rule-based
// planner (index point/prefix access when the predicates cover an index,
// sequential scan otherwise) over tuple-at-a-time scans that filter at the
// tuple, feeding materialized join, aggregate and sort inputs. Every
// operator is a TScout operating unit with the feature set MB2-style
// behavior models expect (tuple counts, widths, probe depths), and charges
// the simulated CPU for the data volumes it actually processes.
package exec

import (
	"tscout/internal/catalog"
	"tscout/internal/kernel"
	"tscout/internal/sql"
	"tscout/internal/storage"
	"tscout/internal/tscout"
	"tscout/internal/txn"
)

// Execution-engine OU identifiers.
const (
	OUSeqScan tscout.OUID = iota + 1
	OUIndexScan
	OUFilter
	OUHashJoin
	OUAggregate
	OUSort
	OUInsert
	OUUpdate
	OUDelete
	OUOutput
	OUFusedPipeline
)

// Engine executes SQL statements against a catalog. Its fields are set by
// New (and FuseSimpleSelects by whoever assembles the server) before the
// first statement runs and only read afterwards, so sessions on different
// goroutines may share one Engine.
type Engine struct {
	cat     *catalog.Catalog
	ts      *tscout.TScout
	markers map[tscout.OUID]*tscout.Marker
	// FuseSimpleSelects executes scan->filter->output pipelines under a
	// single measurement with vectorized features (paper §5.2), as a
	// JIT-compiling engine would.
	FuseSimpleSelects bool
	// observe, when set, is shown every Run after it returns. It is the
	// differential tests' tap on statements that arrive through the dbms.
	observe func(ctx *Ctx, p *Prepared, params []storage.Value, res *Result, err error)
}

// New creates an engine. ts may be nil for an uninstrumented DBMS;
// otherwise the engine registers its OUs (call before ts.Deploy).
func New(cat *catalog.Catalog, ts *tscout.TScout) (*Engine, error) {
	e := &Engine{cat: cat, ts: ts, markers: make(map[tscout.OUID]*tscout.Marker)}
	if ts == nil {
		return e, nil
	}
	defs := []struct {
		id       tscout.OUID
		name     string
		features []string
	}{
		{OUSeqScan, "seq_scan", []string{"num_rows", "row_width", "num_blocks"}},
		{OUIndexScan, "index_scan", []string{"num_lookups", "tree_height", "num_rows_out", "row_width"}},
		{OUFilter, "filter", []string{"num_rows_in", "num_preds", "num_rows_out"}},
		{OUHashJoin, "hash_join", []string{"build_rows", "probe_rows", "num_matches", "row_width"}},
		{OUAggregate, "aggregate", []string{"num_rows_in", "num_groups", "num_aggs"}},
		{OUSort, "sort", []string{"num_rows", "row_width", "num_keys"}},
		{OUInsert, "insert", []string{"num_rows", "row_bytes", "num_indexes"}},
		{OUUpdate, "update", []string{"num_rows", "row_bytes", "num_indexes"}},
		{OUDelete, "delete", []string{"num_rows", "num_indexes"}},
		{OUOutput, "output", []string{"num_rows", "num_bytes"}},
		{OUFusedPipeline, "fused_pipeline", []string{"num_ous"}},
	}
	for _, d := range defs {
		m, err := ts.RegisterOU(tscout.OUDef{
			ID: d.id, Name: d.name,
			Subsystem: tscout.SubsystemExecutionEngine,
			Features:  d.features,
		}, tscout.ResourceSet{CPU: true, Memory: true, Disk: true})
		if err != nil {
			return nil, err
		}
		e.markers[d.id] = m
	}
	return e, nil
}

// Marker exposes an OU's marker (nil when uninstrumented).
func (e *Engine) Marker(id tscout.OUID) *tscout.Marker { return e.markers[id] }

// Ctx carries one statement's execution context. A session keeps one Ctx
// and runs every statement through it, so the unexported fields below are
// reused from statement to statement; a fresh &Ctx{Task: ..., Txn: ...}
// works too and allocates them as it goes. A Ctx belongs to one goroutine.
type Ctx struct {
	Task *kernel.Task
	Txn  *txn.Txn

	// fused is set while a fused pipeline's operators run: one measurement
	// covers the pipeline, so ouBegin hands them no marker.
	fused bool

	// Statement scratch: memory an execution needs only until it returns.
	// Run resets it at the statement boundary. Nothing in it is ever
	// reachable from a *Result — results belong to the caller, who may hold
	// them across any number of later statements.
	//
	// matches is the scan in progress (DML consumes it in place); rows are
	// the row headers a SELECT's operators pass along — the joined rows so
	// far, the table being joined, and the join's output, in rotation;
	// preds is the arena bound predicates are cut from; join is hashJoin's
	// build table.
	matches []match
	rows    [3][]storage.Row
	preds   []compiledPred
	join    joinTable
}

// resetScratch starts a statement: whatever the previous one bound is dead.
// The match and row slots are truncated by their next user.
func (c *Ctx) resetScratch() { c.preds = c.preds[:0] }

// allocPreds cuts n predicates from the arena. A full arena is replaced,
// not grown in place: slices cut earlier in the statement keep the old one.
func (c *Ctx) allocPreds(n int) []compiledPred {
	if len(c.preds)+n > cap(c.preds) {
		c.preds = make([]compiledPred, 0, max(2*cap(c.preds), n, 16))
	}
	lo := len(c.preds)
	c.preds = c.preds[:lo+n]
	return c.preds[lo : lo+n : lo+n]
}

// Result is a statement's outcome. For DML, Affected counts rows.
type Result struct {
	Cols     []string
	Rows     []storage.Row
	Affected int
}

// Bytes estimates the result's wire size (the output OU's volume).
func (r *Result) Bytes() int64 {
	var n int64 = 16
	for _, row := range r.Rows {
		n += row.Size() + 8
	}
	return n
}

// Execute analyzes and runs one parsed statement in a single call — Prepare
// then Run — for callers that execute a statement once. The caller is
// responsible for the per-query TScout sampling event (ts.BeginEvent) and
// for committing the transaction.
func (e *Engine) Execute(ctx *Ctx, stmt sql.Statement, params []storage.Value) (*Result, error) {
	p, err := e.Prepare(stmt)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, p, params)
}

// begin/end/features helpers tolerate nil markers (uninstrumented runs).
func (e *Engine) ouBegin(ctx *Ctx, id tscout.OUID) *tscout.Marker {
	if ctx.fused {
		return nil
	}
	m := e.markers[id]
	if m != nil {
		m.Begin(ctx.Task)
	}
	return m
}

func ouEnd(ctx *Ctx, m *tscout.Marker) {
	if m != nil {
		m.End(ctx.Task)
	}
}

func ouFeatures(ctx *Ctx, m *tscout.Marker, alloc int64, feats ...uint64) {
	if m != nil {
		m.Features(ctx.Task, alloc, feats...)
	}
}
