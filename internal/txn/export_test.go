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
// index w-1, each in list order.
func (m *Manager) freeLists() [maxRecycledWidth][]*storage.Version {
	var lists [maxRecycledWidth][]*storage.Version
	for i, v := range m.versions {
		for ; v != nil; v = v.Next {
			lists[i] = append(lists[i], v)
		}
	}
	return lists
}
