package bpf

// PatternNames lists the pattern super-op kinds in declaration order, from
// the first one up to (not including) muHelperCall.
var PatternNames = [muHelperCall - muStoreZeroRun]string{
	"muStoreZeroRun", "muLoadObjStore", "muGetArgStore", "muReadCounterLoad",
	"muReadCounterStore", "muScaleStore", "muDeltaObjStore",
	"muAddImmObjStore", "muProbeScaleStore",
}

// PatternCounts decodes lp the way Compile does and adds to counts, per
// pattern super-op kind, how many either peephole pass produced in lp's
// blocks — a first-pass super-op counts where it is made, because the
// second pass may go on to absorb it into a larger one. It returns the
// decline reason if lp does not compile.
func PatternCounts(lp *LoadedProgram, counts *[len(PatternNames)]int) string {
	cc, reason := lp.decode()
	if reason != "" {
		return reason
	}
	for pc := 0; pc < len(cc.fns); {
		run := cc.run(pc)
		if len(run) == 0 {
			pc++
			continue
		}
		first := rewrite(run, matchPattern)
		for _, pass := range [][]microOp{first, rewrite(first, matchPattern2)} {
			for _, op := range pass {
				if op.kind >= muStoreZeroRun && op.kind < muHelperCall {
					counts[op.kind-muStoreZeroRun]++
				}
			}
		}
		pc += len(run)
	}
	return ""
}
