// Package dvefix exercises discarded-verify-error: the error from the bpf
// verification entry points must be checked, never dropped or blanked.
package dvefix

import "tscout/internal/bpf"

func Bare(p *bpf.Program) {
	bpf.Verify(p, 512) // want:discarded-verify-error
}

func InGoroutine(p *bpf.Program) {
	go bpf.Verify(p, 512) // want:discarded-verify-error
}

func Deferred(p *bpf.Program) {
	defer bpf.Verify(p, 512) // want:discarded-verify-error
}

func BlankedAnalyze(p *bpf.Program) *bpf.Analysis {
	a, _ := bpf.Analyze(p, 512) // want:discarded-verify-error
	return a
}

func BlankedLoad(p *bpf.Program) *bpf.LoadedProgram {
	lp, _ := bpf.Load(p, 512) // want:discarded-verify-error
	return lp
}

func BlankedLoadOptimized(p *bpf.Program) *bpf.LoadedProgram {
	lp, _, _ := bpf.LoadOptimized(p, 512) // want:discarded-verify-error
	return lp
}

func BlankedOptimize(p *bpf.Program) *bpf.Program {
	op, _, _ := bpf.Optimize(p, 512) // want:discarded-verify-error
	return op
}

func BareCompile(lp *bpf.LoadedProgram) {
	lp.Compile() // want:discarded-verify-error
}

func BlankedCompile(lp *bpf.LoadedProgram) bpf.CompileInfo {
	info, _ := lp.Compile() // want:discarded-verify-error
	return info
}

// Checking or propagating the verdict is the contract: not flagged.
func CheckedCompile(lp *bpf.LoadedProgram) error {
	if _, err := lp.Compile(); err != nil {
		return err
	}
	return nil
}

func Checked(p *bpf.Program) error {
	return bpf.Verify(p, 512)
}

func Handled(p *bpf.Program) (*bpf.Analysis, error) {
	return bpf.Analyze(p, 512)
}

// Blanking the stats while keeping the error is fine: not flagged.
func StatsDropped(p *bpf.Program) (*bpf.Program, error) {
	op, _, err := bpf.Optimize(p, 512)
	return op, err
}

// A local function that happens to be called Verify is not bpf.Verify —
// the old name-matching pass could not tell them apart. Not flagged.
func Verify(n int) error { return nil }

func CallsLocal() {
	Verify(3)
}
