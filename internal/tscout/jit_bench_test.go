package tscout

import (
	"testing"

	"tscout/internal/bpf"
)

// BenchmarkCollectorInterpVsCompiled is interpreter-vs-JIT throughput for
// the Collector marker hot path, over loadMarkerPrograms' set. Each marker
// program gets its own interp/compiled pair, plus a full BEGIN → END →
// FEATURES cycle; the acceptance bar is ≥5× on the features program — the
// pure feature-serialization path whose cost is all Collector code rather
// than shared kernel helpers. The TestJITSmoke* tests are the correctness
// side; this reports the speed side for EXPERIMENTS.md.
//
// Run: go test ./internal/tscout -run xxx -bench CollectorInterpVsCompiled -benchtime 2s
func BenchmarkCollectorInterpVsCompiled(b *testing.B) {
	for _, eng := range []struct {
		name    string
		compile bool
	}{{"interp", false}, {"compiled", true}} {
		b.Run(eng.name, func(b *testing.B) {
			begin, end, features, task := loadMarkerPrograms(b, eng.compile)
			runs := []struct {
				name string
				lp   *bpf.LoadedProgram
				args []uint64
			}{
				{"begin", begin, markerArgs},
				{"end", end, markerArgs},
				{"features", features, fullFeatureArgs},
			}
			for _, r := range runs {
				b.Run(r.name, func(b *testing.B) {
					// BEGIN primes the in-flight entry END and FEATURES
					// consume, so every program runs its full hot path.
					if _, _, err := begin.Run(task, markerArgs); err != nil {
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
					if _, _, err := begin.Run(task, markerArgs); err != nil {
						b.Fatal(err)
					}
					if _, _, err := end.Run(task, markerArgs); err != nil {
						b.Fatal(err)
					}
					if _, _, err := features.Run(task, fullFeatureArgs); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
