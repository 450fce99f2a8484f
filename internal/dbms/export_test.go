package dbms

// StatementTraffic exposes the statement table's counters to the external
// tests (which may import the workload generators): texts found, texts
// parsed, full-table drops, and the table's current size.
func (s *Server) StatementTraffic() (hits, misses, resets uint64, size int) {
	return s.stmts.hits, s.stmts.misses, s.stmts.resets, len(s.stmts.byText)
}

// MaxCachedStatements is the statement table's bound.
const MaxCachedStatements = maxCachedStatements
