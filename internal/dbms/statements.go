package dbms

import (
	"tscout/internal/exec"
	"tscout/internal/sql"
	"tscout/internal/storage"
)

// maxCachedStatements bounds a server's statement table. A text's string
// literals bind as parameters of its template (each '...' becomes the next
// $n after the text's highest); numbers stay literals, since a number may
// stand where no $n may (LIMIT 1). So the benchmarks' statements are a few
// dozen templates, which all fit. What the bound is for is the texts kept
// for an exact hit beside them: each literal variant of a template, and
// every text with number literals or typed by hand (npdb's shell), which is
// its own template. A client can send any number of those.
const maxCachedStatements = 1024

// statement is one template's parsed form and, once it has executed, its
// analysis. The AST is shared and never mutated by exec.
type statement struct {
	ast sql.Statement
	// plan is nil until the first successful analysis; a failed analysis
	// is not remembered.
	plan *exec.Prepared
}

// textEntry is what the table keeps for one text: its template's statement
// and the string literals the template lifted out, which bind after the
// call's parameters, nparams of them (the highest $n the text names).
type textEntry struct {
	st      *statement
	lits    []storage.Value
	nparams int
}

// statementTable maps statement text to its parsed and analyzed form: the
// server side of a prepared statement, keyed by text because the workloads'
// clients send text. A text with string literals is an alias of its
// template (sql.Templater), so texts that differ only in their literals
// share one parse and one analysis. Like the rest of a Server's session
// path it belongs to the one goroutine that drives the server's sessions.
type statementTable struct {
	byText map[string]textEntry
	// tmpl lexes a text missing from byText into its template in scratch.
	tmpl sql.Templater
	// Traffic counters: lookups served without parsing, lookups that
	// parsed, and times a full table was dropped.
	hits, misses, resets uint64
}

// lookup returns text's statement for a call binding nparams parameters,
// and the literal values to bind after them. A text missing from the table
// is lexed once into its template, in the Templater's scratch, which is
// parsed and copied into the table only if it is new; the text then enters
// as the template's alias. So a new text of a known template allocates
// only its string literals and their slice. A call whose parameter count is
// not the text's highest $n, and a text whose template does not parse, get
// the raw text parsed and uncached, so their result or error is the one the
// text has on its own; a text that is its own template and does not parse
// is parsed once, and that parse's error returned. Parse errors are never
// cached.
func (t *statementTable) lookup(text string, nparams int) (*statement, []storage.Value, error) {
	if e, ok := t.byText[text]; ok && (len(e.lits) == 0 || e.nparams == nparams) {
		t.hits++
		return e.st, e.lits, nil
	}
	tmpl, lits, maxParam, err := t.tmpl.Template(text)
	if err == nil && (len(lits) == 0 || maxParam == nparams) {
		key := text
		if tmpl != nil {
			if e, ok := t.byText[string(tmpl)]; ok {
				t.hits++
				t.add(text, textEntry{e.st, lits, maxParam})
				return e.st, lits, nil
			}
			key = string(tmpl)
		}
		ast, err := sql.Parse(key)
		if err == nil {
			t.misses++
			st := &statement{ast: ast}
			t.add(key, textEntry{st: st})
			if len(lits) > 0 {
				t.add(text, textEntry{st, lits, maxParam})
			}
			return st, lits, nil
		}
		if tmpl == nil { // key is text: its own parse failed
			t.misses++
			return nil, nil, err
		}
	}
	t.misses++
	ast, err := sql.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	return &statement{ast: ast}, nil, nil
}

// add enters text. A full table is dropped whole rather than evicted from:
// the hot templates re-enter within a transaction each, and the hit path
// carries no bookkeeping. Dropping clears the map, which keeps the room it
// grew for the next fill.
func (t *statementTable) add(text string, e textEntry) {
	if len(t.byText) >= maxCachedStatements {
		clear(t.byText)
		t.resets++
	}
	if t.byText == nil {
		t.byText = make(map[string]textEntry)
	}
	t.byText[text] = e
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
