package txn

// Stats exposes Manager.stats to the external tests, which may import the
// DBMS and the workload generators.
func (m *Manager) Stats() (running int, oldestReadTS, unlinked uint64) { return m.stats() }
