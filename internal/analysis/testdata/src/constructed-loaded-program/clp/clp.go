// Package clpfix exercises constructed-loaded-program: a bpf.LoadedProgram
// that did not come from bpf.Load never passed the verifier.
package clpfix

import "tscout/internal/bpf"

func Forged() *bpf.LoadedProgram {
	return &bpf.LoadedProgram{} // want:constructed-loaded-program
}

func ForgedValue() bpf.LoadedProgram {
	return bpf.LoadedProgram{} // want:constructed-loaded-program
}

// The sanctioned path: not flagged.
func Legit(p *bpf.Program) (*bpf.LoadedProgram, error) {
	return bpf.Load(p, 512)
}

// Other bpf types are plain data and remain constructible: not flagged.
func Program() *bpf.Program {
	return &bpf.Program{}
}
