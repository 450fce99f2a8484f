package analysis

import (
	"go/ast"
)

// wallClockTimeFuncs are the time-package functions that observe or wait
// on the host's wall clock. Pure conversions (time.Unix, time.Duration
// arithmetic) are fine: they compute, they don't observe.
var wallClockTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

// globalRandFuncs are the math/rand package-level functions that draw from
// the process-global source: shared across goroutines, seeded who-knows-
// when, and invisible to the (NumCPUs × drain parallelism) bit-equality
// grids. Constructors (NewSource, New, NewZipf) are allowed here — they
// are how randomness is *supposed* to enter — and are policed separately
// by seeded-source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

// WallClockAnalyzer bans wall-clock time and the global math/rand source
// in simulation-critical packages. Everything those packages emit —
// archives, noise streams, WAL replay order, golden fingerprints — is
// asserted bit-identical across seeds and topologies; one time.Now or
// rand.Intn and the determinism grid only passes by luck.
var WallClockAnalyzer = &Analyzer{
	Name: RuleWallClock,
	Run:  runWallClock,
}

func runWallClock(pass *Pass) {
	if !simCritical(pass.RelPath) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || recvNamed(fn) != nil {
				return true
			}
			switch funcPkgPath(fn) {
			case "time":
				if wallClockTimeFuncs[fn.Name()] {
					pass.Reportf(call.Pos(),
						"time.%s reads the wall clock; simulation-critical code must use the virtual clock", fn.Name())
				}
			case "math/rand":
				if globalRandFuncs[fn.Name()] {
					pass.Reportf(call.Pos(),
						"rand.%s draws from the process-global source; use a seeded *rand.Rand or a sim noise stream", fn.Name())
				}
			}
			return true
		})
	}
}
