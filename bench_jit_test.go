// Interpreter-vs-JIT throughput for the Collector marker hot path, over
// the generated ExecutionEngine programs with every resource probe
// enabled (the largest programs codegen emits). Each marker program gets
// its own interp/compiled pair, plus a full BEGIN → END → FEATURES cycle;
// the acceptance bar is ≥5× on the features program — the pure
// feature-serialization path whose cost is all Collector code rather than
// shared kernel helpers. internal/tscout's TestJITSmoke* tests are the
// correctness side; this reports the speed side for EXPERIMENTS.md.
//
// Run: go test -bench=CollectorInterpVsCompiled -benchtime=2s
package bench

import (
	"testing"

	"tscout/internal/bpf"
	"tscout/internal/kernel"
	"tscout/internal/sim"
	"tscout/internal/tscout"
)

// collectorBenchSet loads a fresh set of the three marker programs (their
// own maps, own kernel and task) so the two engines never share state.
func collectorBenchSet(b *testing.B, compile bool) (begin, end, features *bpf.LoadedProgram, task *kernel.Task) {
	b.Helper()
	progs := tscout.CollectorPrograms(tscout.SubsystemExecutionEngine,
		tscout.ResourceSet{CPU: true, Memory: true, Disk: true, Network: true})
	k := kernel.New(sim.LargeHW, 1, 0)
	task = k.NewTask("bench")
	loaded := map[string]*bpf.LoadedProgram{}
	for _, np := range progs {
		lp, err := bpf.Load(np.Prog, 0)
		if err != nil {
			b.Fatalf("%s: %v", np.Name, err)
		}
		if compile {
			if info := lp.Compile(); !info.Compiled {
				b.Fatalf("%s declined compilation: %s", np.Name, info.Reason)
			}
		}
		loaded[np.Name] = lp
	}
	return loaded["begin"], loaded["end"], loaded["features"], task
}

var (
	benchMarkerArgs = []uint64{1}
	// A full-width feature vector (OU id + 10 features): the features
	// program's serialization loop dominates, which is the path the ≥5×
	// criterion measures.
	benchFeatArgs = []uint64{1, 4096, 10, 11, 22, 33, 44, 55, 66, 77, 88, 99, 110}
)

func BenchmarkCollectorInterpVsCompiled(b *testing.B) {
	for _, eng := range []struct {
		name    string
		compile bool
	}{{"interp", false}, {"compiled", true}} {
		b.Run(eng.name, func(b *testing.B) {
			begin, end, features, task := collectorBenchSet(b, eng.compile)
			runs := []struct {
				name string
				lp   *bpf.LoadedProgram
				args []uint64
			}{
				{"begin", begin, benchMarkerArgs},
				{"end", end, benchMarkerArgs},
				{"features", features, benchFeatArgs},
			}
			for _, r := range runs {
				b.Run(r.name, func(b *testing.B) {
					// BEGIN primes the in-flight entry END and FEATURES
					// consume, so every program runs its full hot path.
					if _, _, err := begin.Run(task, benchMarkerArgs); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, _, err := r.lp.Run(task, r.args); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			b.Run("cycle", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := begin.Run(task, benchMarkerArgs); err != nil {
						b.Fatal(err)
					}
					if _, _, err := end.Run(task, benchMarkerArgs); err != nil {
						b.Fatal(err)
					}
					if _, _, err := features.Run(task, benchFeatArgs); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
