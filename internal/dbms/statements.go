package dbms

import (
	"tscout/internal/exec"
	"tscout/internal/sql"
	"tscout/internal/storage"
)

// maxCachedStatements bounds a server's statement table. A text's string
// literals bind as parameters of its template (each '...' becomes the next
// $n after the text's highest), and only the template is entered; numbers
// stay literals, since a number may stand where no $n may (LIMIT 1). So
// the benchmarks' statements are a few dozen templates, which all fit.
// What the bound is for is every text with number literals or typed by
// hand (npdb's shell), which is its own template. A client can send any
// number of those.
const maxCachedStatements = 1024

// statement is one template's parsed form and, once it has executed, its
// analysis. The AST is shared and never mutated by exec.
type statement struct {
	ast sql.Statement
	// plan is nil until the first successful analysis; a failed analysis
	// is not remembered.
	plan *exec.Prepared
}

// statementTable maps statement text to its parsed and analyzed form: the
// server side of a prepared statement, keyed by text because the workloads'
// clients send text. It holds templates (sql.Templater): a text with string
// literals is looked up by its template, so texts that differ only in their
// literals share one parse and one analysis and are not entered themselves.
// Like the rest of a Server's session path it belongs to the one goroutine
// that drives the server's sessions.
type statementTable struct {
	byText map[string]*statement
	// tmpl lexes a text missing from byText into its template in scratch.
	tmpl sql.Templater
	// Traffic counters: lookups served without parsing, lookups that
	// parsed, and times a full table was dropped.
	hits, misses, resets uint64
}

// lookup returns text's statement for a call binding nparams parameters,
// with the text's string literals appended to vals: they bind after the
// call's parameters, and vals is the caller's scratch, which holds those
// parameters (or, in a packet, the earlier statements' literals). A text
// missing from the table is lexed into its template, in the Templater's
// scratch, and its literals are substrings of text (sql.Templater), so a
// text of a known template allocates nothing; a template that is new is
// parsed and entered. A call whose parameter count is not the text's
// highest $n, and a text whose template does not parse, get the raw text
// parsed and uncached, so their result or error is the one the text has on
// its own; a text that is its own template and does not parse is parsed
// once, and that parse's error returned. Parse errors are never cached.
// Whenever lookup returns no literals it returns vals as it came in.
func (t *statementTable) lookup(text string, nparams int, vals []storage.Value) (*statement, []storage.Value, error) {
	if st, ok := t.byText[text]; ok {
		t.hits++
		return st, vals, nil
	}
	n := len(vals)
	tmpl, vals, maxParam, err := t.tmpl.Template(text, vals)
	if err == nil && (tmpl == nil || maxParam == nparams) {
		key := text
		if tmpl != nil {
			if st, ok := t.byText[string(tmpl)]; ok {
				t.hits++
				return st, vals, nil
			}
			key = string(tmpl)
		}
		ast, err := sql.Parse(key)
		if err == nil {
			t.misses++
			st := &statement{ast: ast}
			t.add(key, st)
			return st, vals, nil
		}
		if tmpl == nil { // key is text: its own parse failed
			t.misses++
			return nil, vals, err
		}
	}
	t.misses++
	ast, err := sql.Parse(text)
	if err != nil {
		return nil, vals[:n], err
	}
	return &statement{ast: ast}, vals[:n], nil
}

// add enters a template. A full table is dropped whole rather than evicted
// from: the hot templates re-enter within a transaction each, and the hit
// path carries no bookkeeping. Dropping clears the map, which keeps the
// room it grew for the next fill.
func (t *statementTable) add(key string, st *statement) {
	if len(t.byText) >= maxCachedStatements {
		clear(t.byText)
		t.resets++
	}
	if t.byText == nil {
		t.byText = make(map[string]*statement)
	}
	t.byText[key] = st
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
