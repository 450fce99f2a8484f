package analysis

import (
	"go/ast"
)

// SeededSourceAnalyzer enforces that randomness is constructed from
// configuration, not conjured in place:
//
//   - rand.NewSource(<constant>) in non-test code hard-wires a seed the
//     operator can never steer; experiments become unrepeatable the moment
//     someone "fixes" the literal. Seeds must flow in through config (the
//     repo's Config.Seed / FaultPlan seed / workload seed plumbing).
//   - Outside the simulation-critical packages (where wall-clock already
//     bans them outright), the math/rand package-level functions draw from
//     the process-global source — unseeded, racily shared, and invisible
//     to any reproducibility story.
var SeededSourceAnalyzer = &Analyzer{
	Name: RuleSeededSource,
	Run:  runSeededSource,
}

func runSeededSource(pass *Pass) {
	critical := simCritical(pass.RelPath)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || funcPkgPath(fn) != "math/rand" || recvNamed(fn) != nil {
				return true
			}
			switch {
			case fn.Name() == "NewSource" && len(call.Args) == 1:
				if tv, ok := pass.Info.Types[call.Args[0]]; ok && tv.Value != nil {
					pass.Reportf(call.Pos(),
						"rand.NewSource seed is the compile-time constant %s; seeds must arrive through config so runs are reproducible and steerable", tv.Value.String())
				}
			case globalRandFuncs[fn.Name()] && !critical:
				// In critical packages wall-clock reports this call; the
				// rules partition so one line never earns two findings.
				pass.Reportf(call.Pos(),
					"rand.%s draws from the unseeded process-global source; construct a *rand.Rand from a config seed", fn.Name())
			}
			return true
		})
	}
}
