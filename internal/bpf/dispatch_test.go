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

var (
	markerArgs = []uint64{1}
	// An OU id, an allocation size and ten feature words: the features
	// program's serialization loop dominates, which is the path the ≥5×
	// criterion of BenchmarkCollectorInterpVsCompiled measures.
	featureArgs = []uint64{1, 4096, 10, 11, 22, 33, 44, 55, 66, 77, 88, 99, 110}
)

// runFn is one way to run a loaded program: Run, or the interpreter.
type runFn func(*kernel.Task, []uint64) (uint64, int64, error)

// loadMarkerPrograms loads a fresh set of the ExecutionEngine marker
// programs with every resource probe enabled — the largest programs
// codegen emits — on their own maps, kernel and task, so two sets never
// share state. With interpret set, each program's runFn is the
// interpreter's; otherwise it is Run.
func loadMarkerPrograms(tb testing.TB, interpret bool) (lps map[string]*bpf.LoadedProgram, run map[string]runFn, task *kernel.Task) {
	tb.Helper()
	all := tscout.ResourceSet{CPU: true, Disk: true, Network: true}
	lps, run = map[string]*bpf.LoadedProgram{}, map[string]runFn{}
	for _, np := range tscout.CollectorPrograms(tscout.SubsystemExecutionEngine, all) {
		lp, err := bpf.Load(np.Prog, 0)
		if err != nil {
			tb.Fatalf("%s: %v", np.Name, err)
		}
		lps[np.Name], run[np.Name] = lp, lp.Run
		if interpret {
			ip, err := bpf.NewInterpreter(lp)
			if err != nil {
				tb.Fatalf("%s: %v", np.Name, err)
			}
			run[np.Name] = ip.RunInterpreted
		}
	}
	return lps, run, kernel.New(sim.LargeHW, 1, 0).NewTask("cycle")
}

// TestMarkerCycleDispatchedOps pins the dispatch count of the marker cycle
// BenchmarkCollectorInterpVsCompiled times, driven through the compiled
// form with each micro-op a block of its own. The cycle must also return
// the interpreter's R0 and cost on a twin set of programs. The benchmark's
// own timing swings too much to gate on, so the count is the guard.
func TestMarkerCycleDispatchedOps(t *testing.T) {
	counted, _, ctask := loadMarkerPrograms(t, false)
	_, interp, itask := loadMarkerPrograms(t, true)
	total := 0
	for _, step := range []struct {
		name string
		args []uint64
	}{{"begin", markerArgs}, {"end", markerArgs}, {"features", featureArgs}} {
		n, r0, cost, err := bpf.DispatchedOps(counted[step.name].Program(), ctask, step.args)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		wr0, wcost, werr := interp[step.name](itask, step.args)
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

// BenchmarkCollectorInterpVsCompiled is interpreter-vs-JIT throughput for
// the Collector marker hot path, over loadMarkerPrograms' set. Each marker
// program gets its own interp/compiled pair, plus a full BEGIN → END →
// FEATURES cycle; the acceptance bar is ≥5× on the features program — the
// pure feature-serialization path whose cost is all Collector code rather
// than shared kernel helpers. TestMarkerCycleDispatchedOps and
// TestCollectorsMatchInterpreter are the correctness side; this reports
// the speed side, whose tables CHANGES.md records.
//
// Run: go test ./internal/bpf -run xxx -bench CollectorInterpVsCompiled -benchtime 2s
func BenchmarkCollectorInterpVsCompiled(b *testing.B) {
	for _, eng := range []struct {
		name      string
		interpret bool
	}{{"interp", true}, {"compiled", false}} {
		b.Run(eng.name, func(b *testing.B) {
			_, run, task := loadMarkerPrograms(b, eng.interpret)
			for _, r := range []struct {
				name string
				args []uint64
			}{{"begin", markerArgs}, {"end", markerArgs}, {"features", featureArgs}} {
				b.Run(r.name, func(b *testing.B) {
					// BEGIN primes the in-flight entry END and FEATURES
					// consume, so every program runs its full hot path.
					if _, _, err := run["begin"](task, markerArgs); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, _, err := run[r.name](task, r.args); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			b.Run("cycle", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := run["begin"](task, markerArgs); err != nil {
						b.Fatal(err)
					}
					if _, _, err := run["end"](task, markerArgs); err != nil {
						b.Fatal(err)
					}
					if _, _, err := run["features"](task, featureArgs); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
