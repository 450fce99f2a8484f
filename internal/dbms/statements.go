package dbms

import (
	"tscout/internal/exec"
	"tscout/internal/sql"
	"tscout/internal/storage"
)

// maxCachedStatements bounds a server's statement table. The benchmarks'
// statements are a few dozen $n templates, which all fit; TATP also inlines
// literals into some texts (thousands of distinct ones), which is what the
// bound is for.
const maxCachedStatements = 1024

// statement is one SQL text's parsed form and, once it has executed, its
// analysis. The AST is shared and never mutated by exec.
type statement struct {
	ast sql.Statement
	// plan is nil until the first successful analysis; a failed analysis
	// is not remembered.
	plan *exec.Prepared
}

// statementTable maps statement text to its parsed and analyzed form: the
// server side of a prepared statement, keyed by text because the workloads'
// clients send text. Like the rest of a Server's session path it belongs
// to the one goroutine that drives the server's sessions.
type statementTable struct {
	byText map[string]*statement
	// Traffic counters: texts found, texts parsed, and times a full table
	// was dropped.
	hits, misses, resets uint64
}

// lookup returns text's statement, parsing it on first sight. Parse errors
// are returned and never cached. A full table is dropped whole rather than
// evicted from: the hot templates re-enter within a transaction each, and
// the hit path carries no bookkeeping.
func (t *statementTable) lookup(text string) (*statement, error) {
	if st, ok := t.byText[text]; ok {
		t.hits++
		return st, nil
	}
	t.misses++
	ast, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	if len(t.byText) >= maxCachedStatements {
		t.byText = nil
		t.resets++
	}
	if t.byText == nil {
		t.byText = make(map[string]*statement)
	}
	st := &statement{ast: ast}
	t.byText[text] = st
	return st, nil
}

// prepared returns st's analysis against the catalog as it is now,
// analyzing on first use and again whenever the catalog has changed since
// (CREATE TABLE, CREATE INDEX, MountArchive).
func (s *Server) prepared(st *statement) (*exec.Prepared, error) {
	if st.plan == nil || s.Engine.Stale(st.plan) {
		var err error
		if st.plan, err = s.Engine.Prepare(st.ast); err != nil {
			return nil, err
		}
	}
	return st.plan, nil
}

// run executes st with the given parameter values: analysis (cached), then
// the engine's bind-and-run step.
func (s *Server) run(ctx *exec.Ctx, st *statement, params []storage.Value) (*exec.Result, error) {
	p, err := s.prepared(st)
	if err != nil {
		return nil, err
	}
	return s.Engine.Run(ctx, p, params)
}
