// Package exec implements the DBMS's execution engine: a rule-based
// planner (index point/prefix access when the predicates cover an index,
// sequential scan otherwise) over tuple-at-a-time scans that filter at the
// tuple, feeding materialized join, aggregate and sort inputs. Every
// operator is a TScout operating unit with the feature set MB2-style
// behavior models expect (tuple counts, widths, probe depths), and charges
// the simulated CPU for the data volumes it actually processes.
//
// A Result is borrowed: it is cut from its Ctx's memory and valid until
// that Ctx's next Rewind, which a dbms session does at the start of each
// call it takes. A caller that reads a result after its session's next
// statement reads cleared or newer cells (Result's doc).
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
)

// Engine executes SQL statements against a catalog. Its fields are set by
// New before the first statement runs and only read afterwards: everything
// a statement writes lives in its Ctx. All of a server's sessions share
// one Engine on the one goroutine that drives the simulation (see the sim
// package doc).
type Engine struct {
	cat *catalog.Catalog
	// markers is indexed by OUID (1 … OUOutput); a nil entry is an
	// uninstrumented OU.
	markers [OUOutput + 1]*tscout.Marker
	// observe, when set, is shown every Run after it returns. It is the
	// differential tests' tap on statements that arrive through the dbms.
	observe func(ctx *Ctx, p *Prepared, params []storage.Value, res *Result, err error)
}

// New creates an engine. ts may be nil for an uninstrumented DBMS;
// otherwise the engine registers its OUs (call before ts.Deploy).
func New(cat *catalog.Catalog, ts *tscout.TScout) (*Engine, error) {
	e := &Engine{cat: cat}
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
	}
	for _, d := range defs {
		m, err := ts.RegisterOU(tscout.OUDef{
			ID: d.id, Name: d.name,
			Subsystem: tscout.SubsystemExecutionEngine,
			Features:  d.features,
		}, tscout.ResourceSet{CPU: true, Disk: true})
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

	// Statement scratch: memory an execution needs only until it returns.
	// Run resets it at the statement boundary. Nothing in it is reachable
	// from a *Result.
	//
	// matches is the scan in progress (DML consumes it in place); rows are
	// the row headers a SELECT's operators pass along — the joined rows so
	// far, the table being joined, and the join's output, in rotation;
	// preds is the arena bound predicates are cut from; join is hashJoin's
	// build table; agg is aggregate's groups; row is the one row an INSERT
	// or UPDATE builds each written row in, which Txn.Insert/Update copy
	// into the stored version, and which is cleared when the statement
	// returns so that it pins no strings.
	matches []match
	rows    [3][]storage.Row
	preds   []compiledPred
	join    joinTable
	agg     aggTable
	row     storage.Row

	// results is what every Result run through this Ctx is cut from. Unlike
	// the statement scratch it lives across Runs, until Rewind.
	results resultScratch
}

// Rewind takes back every Result run through c so far: they, their rows
// and their cells are cleared, and the next statements cut their results
// from the same memory. A session rewinds its Ctx once at the start of each
// call it takes, so a Result is valid until that session's next call; a
// Ctx nothing rewinds never reuses a Result.
func (c *Ctx) Rewind() {
	c.results.structs.rewind()
	c.results.headers.rewind()
	c.results.cells.rewind()
}

// resultScratch is the memory a Ctx's Results are cut from: Result
// structs, their row headers and their projected and aggregated cells. A
// Result's Cols is not cut from it: it is its plan's, shared and
// read-only.
type resultScratch struct {
	structs arena[Result]
	headers arena[storage.Row]
	cells   arena[storage.Value]
}

// newResult cuts a Result whose column names are cols, a plan's shared
// slice.
func (rs *resultScratch) newResult(cols []string) *Result {
	r := &rs.structs.cut(1)[0]
	r.Cols = cols
	return r
}

// affected cuts a DML statement's Result, which counts n rows written.
func (rs *resultScratch) affected(n int) *Result {
	r := rs.newResult(nil)
	r.Affected = n
	return r
}

// newRows cuts n row headers for a result.
func (rs *resultScratch) newRows(n int) []storage.Row { return rs.headers.cut(n) }

// newCells cuts n cells for a result's rows.
func (rs *resultScratch) newCells(n int) []storage.Value { return rs.cells.cut(n) }

// arena hands out runs of one array and takes them all back at once. It is
// sized by use: it starts empty, and a cut that does not fit replaces the
// array with one large enough for everything cut since the last rewind, and
// at least twice the old one, so after a rewind a call the same size as the
// largest so far cuts from one array and allocates nothing, and a session
// whose calls grow replaces its arrays a few times, not once a call. The
// replaced array is not touched again: what was cut from it stays valid
// until the rewind, and then it is garbage. An arena nothing rewinds grows
// no array past maxArena elements beyond the cut that needs it.
type arena[T any] struct {
	buf []T
	// off is the next free element of buf, which is zero from off on; used
	// counts the elements cut since the last rewind, from any array.
	off, used int
}

// maxArena bounds how far an arena sizes a new array ahead of its cut.
const maxArena = 4096

// cut returns n zeroed elements with capacity clipped so that an append
// never reaches the next cut.
func (a *arena[T]) cut(n int) []T {
	a.used += n
	if a.off+n > len(a.buf) {
		a.buf = make([]T, max(n, min(max(a.used, 2*len(a.buf)), maxArena)))
		a.off = 0
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// rewind takes back everything cut, clearing it so that the array pins
// nothing a result held.
func (a *arena[T]) rewind() {
	clear(a.buf[:a.off])
	a.off, a.used = 0, 0
}

// resetScratch starts a statement: whatever the previous one bound is dead.
// The match and row slots are truncated by their next user.
func (c *Ctx) resetScratch() { c.preds = c.preds[:0] }

// dmlRow returns the row scratch as n NULL cells.
func (c *Ctx) dmlRow(n int) storage.Row {
	if cap(c.row) < n {
		c.row = make(storage.Row, n)
	}
	r := c.row[:n]
	clear(r)
	return r
}

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
// A Result, its Rows and their cells are borrowed from the Ctx that ran the
// statement, whether its transaction commits or not: they are valid until
// that Ctx's next Rewind, which a session does at the start of its next
// call (Statement, Execute or SubmitPacket), and read as cleared or as a
// later statement's after it. Copy what must outlive the call. A Ctx that
// is never rewound, such as a fresh &Ctx{}, never reuses its results. No
// row aliases a stored row: every projection copies its cells (stored rows
// are valid only until their transaction ends), so the caller may write
// its rows and their cells. Cols is the plan's own slice, shared by every
// execution of the statement, and is read-only.
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
