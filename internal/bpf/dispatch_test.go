package bpf_test

import (
	"testing"

	"tscout/internal/bpf"
	"tscout/internal/kernel"
	"tscout/internal/sim"
	"tscout/internal/tscout"
)

// maxCycleOps bounds the micro-ops one BEGIN → END → FEATURES cycle of the
// all-probes ExecutionEngine Collector dispatches with ten feature words
// (173 before the copy, delta, probe-read, guard-ladder and map-call
// fusions).
const maxCycleOps = 110

// TestMarkerCycleDispatchedOps pins the dispatch count of the marker cycle
// BenchmarkCollectorInterpVsCompiled times: the programs tscout's
// loadMarkerPrograms loads (every probe on), driven through
// the compiled form with each micro-op a block of its own. The cycle must
// also return the interpreter's R0 and cost on a twin set of programs. The
// benchmark's own timing swings too much to gate on, so the count is the
// guard.
func TestMarkerCycleDispatchedOps(t *testing.T) {
	all := tscout.ResourceSet{CPU: true, Memory: true, Disk: true, Network: true}
	load := func() (map[string]*bpf.LoadedProgram, *kernel.Task) {
		k := kernel.New(sim.LargeHW, 1, 0)
		lps := map[string]*bpf.LoadedProgram{}
		for _, np := range tscout.CollectorPrograms(tscout.SubsystemExecutionEngine, all) {
			lp, err := bpf.Load(np.Prog, 0)
			if err != nil {
				t.Fatalf("%s: %v", np.Name, err)
			}
			lps[np.Name] = lp
		}
		return lps, k.NewTask("cycle")
	}
	counted, ctask := load()
	interp, itask := load()
	marker := []uint64{1}
	features := []uint64{1, 4096, 10, 11, 22, 33, 44, 55, 66, 77, 88, 99, 110}
	total := 0
	for _, step := range []struct {
		name string
		args []uint64
	}{{"begin", marker}, {"end", marker}, {"features", features}} {
		n, r0, cost, err := bpf.DispatchedOps(counted[step.name], ctask, step.args)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		wr0, wcost, werr := interp[step.name].RunInterpreted(itask, step.args)
		if werr != nil || r0 != wr0 || cost != wcost {
			t.Fatalf("%s: compiled (R0 %d, cost %d), interpreter (R0 %d, cost %d, %v)",
				step.name, r0, cost, wr0, wcost, werr)
		}
		t.Logf("%s: %d micro-ops", step.name, n)
		total += n
	}
	if total > maxCycleOps {
		t.Fatalf("the marker cycle dispatches %d micro-ops, want ≤ %d", total, maxCycleOps)
	}
}
