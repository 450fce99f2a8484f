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
// first statement runs and only read afterwards, but for the result chunks
// every statement cuts its Result from. All of a server's sessions share one
// Engine on the one goroutine that drives the simulation (see the sim
// package doc).
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
	results resultChunks
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

// Ctx carries one statement's execution context. A session keeps one Ctx
// and runs every statement through it, so the unexported fields below are
// reused from statement to statement; a fresh &Ctx{Task: ..., Txn: ...}
// works too and allocates them as it goes. A Ctx belongs to one session.
type Ctx struct {
	Task *kernel.Task
	Txn  *txn.Txn

	// fused is set while a fused pipeline's operators run: one measurement
	// covers the pipeline, so their markers neither begin nor end, and
	// ouFeatures records each operator's features in parts instead.
	fused bool
	parts []tscout.FusedPart

	// Statement scratch: memory an execution needs only until it returns.
	// Run resets it at the statement boundary. Nothing in it is ever
	// reachable from a *Result — results belong to the caller, who may hold
	// them across any number of later statements, and are cut from the
	// engine's resultChunks, which are never reused.
	//
	// matches is the scan in progress (DML consumes it in place); rows are
	// the row headers a SELECT's operators pass along — the joined rows so
	// far, the table being joined, and the join's output, in rotation;
	// preds is the arena bound predicates are cut from; join is hashJoin's
	// build table; agg is aggregate's groups.
	matches []match
	rows    [3][]storage.Row
	preds   []compiledPred
	join    joinTable
	agg     aggTable
}

// resultChunks is the memory every Result an engine returns is cut from:
// chunks of Result structs, of their row headers and of their projected and
// aggregated cells. Unlike a Ctx's scratch, a chunk is never handed out
// twice: what is cut from it is the caller's for good, a full chunk is
// dropped for a fresh one, not rewound, and a held result pins at most one
// chunk of each kind. A Result's Cols is not cut from them: it is its
// plan's, shared and read-only.
//
// The engine keeps one set for all its sessions, so consecutive statements,
// whichever session runs them, cut neighbouring memory. A set per session
// spreads them over as many partly used chunks as there are sessions, each
// cold by the time its session runs again.
type resultChunks struct {
	structs []Result
	headers []storage.Row
	cells   []storage.Value
}

// Result chunk lengths, a few KB each. A request for more than a quarter
// of a chunk gets its own allocation, so a held result pins at most one
// chunk of each kind and a large result leaves no chunk mostly unused.
const (
	resultChunk = 64
	headerChunk = 128
	cellChunk   = 256
)

// cut returns n zeroed elements from the front of *chunk, with capacity
// clipped so that an append never reaches the next cut. A chunk too short
// for n is replaced with a fresh one of chunkLen; the old one stays with
// whatever was cut from it.
func cut[T any](chunk *[]T, n, chunkLen int) []T {
	if n > chunkLen/4 {
		return make([]T, n)
	}
	if len(*chunk) < n {
		*chunk = make([]T, chunkLen)
	}
	s := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return s
}

// newResult cuts a Result whose column names are cols, a plan's shared
// slice.
func (rc *resultChunks) newResult(cols []string) *Result {
	r := &cut(&rc.structs, 1, resultChunk)[0]
	r.Cols = cols
	return r
}

// affected cuts a DML statement's Result, which counts n rows written.
func (rc *resultChunks) affected(n int) *Result {
	r := rc.newResult(nil)
	r.Affected = n
	return r
}

// newRows cuts n row headers for a result.
func (rc *resultChunks) newRows(n int) []storage.Row { return cut(&rc.headers, n, headerChunk) }

// newCells cuts n cells for a result's rows.
func (rc *resultChunks) newCells(n int) []storage.Value { return cut(&rc.cells, n, cellChunk) }

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
//
// A Result, its Rows and the cells a projection or aggregate produced are
// the caller's forever. They are cut from the engine's result chunks, which
// are never reused, so no later statement writes them, and a held result
// pins at most one chunk of each kind. The caller may write its rows and
// those cells, but not an identity projection's rows, which are stored
// rows. Cols is the plan's own slice, shared by every execution of the
// statement, and is read-only.
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

// begin/end/features helpers tolerate nil markers (uninstrumented runs).
func (e *Engine) ouBegin(ctx *Ctx, id tscout.OUID) *tscout.Marker {
	m := e.markers[id]
	if m != nil && !ctx.fused {
		m.Begin(ctx.Task)
	}
	return m
}

func ouEnd(ctx *Ctx, m *tscout.Marker) {
	if m != nil && !ctx.fused {
		m.End(ctx.Task)
	}
}

// ouFeatures emits an OU's features, or inside a fused pipeline records
// them as the pipeline's part for that OU: the same words either way.
func ouFeatures(ctx *Ctx, m *tscout.Marker, alloc int64, feats ...uint64) {
	switch {
	case m == nil:
	case ctx.fused:
		ctx.parts = append(ctx.parts, tscout.FusedPart{OU: m.OU().ID, Features: append([]uint64(nil), feats...)})
	default:
		m.Features(ctx.Task, alloc, feats...)
	}
}
