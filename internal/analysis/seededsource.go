package analysis

import (
	"go/ast"
)

// SeededSourceAnalyzer enforces that randomness is constructed from
// configuration, as one kind of stream, not conjured in place:
//
//   - Under internal/, cmd/ and examples/, math/rand's NewSource is
//     flagged whatever its seed: every simulation stream is a keyed PCG,
//     rand.New(sim.NewPCG(seed, key)), 16 bytes of state where NewSource
//     builds a 4.9 KB sequential source whose every draw depends on all
//     the draws before it.
//   - A compile-time-constant seed given to rand.NewSource or sim.NewPCG
//     hard-wires a seed the operator can never steer; experiments become
//     unrepeatable the moment someone "fixes" the literal. Seeds must flow
//     in through config (the repo's Config.Seed / FaultPlan seed / workload
//     seed plumbing); a PCG's key names its stream and may be constant.
//   - Outside the simulation-critical packages (where wall-clock already
//     bans them outright), the math/rand package-level functions draw from
//     the process-global source — unseeded, racily shared, and invisible
//     to any reproducibility story.
var SeededSourceAnalyzer = &Analyzer{
	Name: RuleSeededSource,
	Run:  runSeededSource,
}

// simPkgSuffix identifies the package of the PCG constructor by
// import-path suffix, as bpfPkgSuffix does the bpf package.
const simPkgSuffix = "internal/sim"

// streamSegments are the path segments of the trees whose streams must all
// be keyed PCGs.
var streamSegments = map[string]bool{"internal": true, "cmd": true, "examples": true}

func runSeededSource(pass *Pass) {
	critical := simCritical(pass.RelPath)
	keyedOnly := hasSegment(pass.RelPath, streamSegments)
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
			pkg := funcPkgPath(fn)
			mathRand := pkg == "math/rand"
			seeded := mathRand && fn.Name() == "NewSource" ||
				hasPathSuffix(pkg, simPkgSuffix) && fn.Name() == "NewPCG"
			switch {
			case mathRand && fn.Name() == "NewSource" && keyedOnly:
				pass.Reportf(call.Pos(),
					"rand.NewSource is a sequential 4.9 KB source; a simulation stream is a keyed PCG: rand.New(sim.NewPCG(seed, key))")
			case seeded && len(call.Args) > 0:
				if tv, ok := pass.Info.Types[call.Args[0]]; ok && tv.Value != nil {
					pass.Reportf(call.Pos(),
						"%s seed is the compile-time constant %s; seeds must arrive through config so runs are reproducible and steerable", fn.Name(), tv.Value.String())
				}
			case mathRand && globalRandFuncs[fn.Name()] && !critical:
				// In critical packages wall-clock reports this call; the
				// rules partition so one line never earns two findings.
				pass.Reportf(call.Pos(),
					"rand.%s draws from the unseeded process-global source; construct a *rand.Rand from a config seed", fn.Name())
			}
			return true
		})
	}
}
