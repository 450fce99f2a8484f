package tscout

// OU returns the marker's OU definition.
func (m *Marker) OU() *OUDef { return m.def }

// Undeploy detaches all Collector programs, so they can be modified and
// reloaded without restarting the DBMS (dynamic feature selection, §5.4).
func (ts *TScout) Undeploy() {
	for _, sub := range ts.subsystems {
		if sub == nil || sub.collector == nil {
			continue
		}
		sub.beginTP.Attach(nil)
		sub.endTP.Attach(nil)
		sub.featTP.Attach(nil)
		sub.collector = nil
	}
	ts.deployed = false
}
