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

// Checking or propagating the verdict is the contract: not flagged.
func CheckedLoad(p *bpf.Program) (*bpf.LoadedProgram, error) {
	lp, err := bpf.Load(p, 512)
	if err != nil {
		return nil, err
	}
	return lp, nil
}

func Checked(p *bpf.Program) error {
	return bpf.Verify(p, 512)
}

func Handled(p *bpf.Program) (*bpf.Analysis, error) {
	return bpf.Analyze(p, 512)
}

// A local function that happens to be called Verify is not bpf.Verify —
// the old name-matching pass could not tell them apart. Not flagged.
func Verify(n int) error { return nil }

func CallsLocal() {
	Verify(3)
}
