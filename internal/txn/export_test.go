package txn

import "tscout/internal/storage"

// stats reports the number of running transactions and the oldest running
// snapshot (0 when none).
func (m *Manager) stats() (running int, oldestReadTS uint64) {
	if m.oldest != nil {
		oldestReadTS = m.oldest.ReadTS
	}
	for t := m.oldest; t != nil; t = t.next {
		running++
	}
	return running, oldestReadTS
}

// Stats exposes Manager.stats to the external tests, which may import the
// DBMS and the workload generators.
func (m *Manager) Stats() (running int, oldestReadTS uint64) { return m.stats() }

// freeLists returns the versions on m's free lists, the list of width w at
// index w, each in list order. A version met a second time, on its own list
// or on another, ends the walk of its list and is returned as twice.
func (m *Manager) freeLists() (lists [maxRecycledWidth + 1][]*storage.Version, twice *storage.Version) {
	seen := map[*storage.Version]bool{}
	for i, v := range m.versions {
		for ; v != nil; v = v.Next {
			if seen[v] {
				twice = v
				break
			}
			seen[v] = true
			lists[i] = append(lists[i], v)
		}
	}
	return lists, twice
}
