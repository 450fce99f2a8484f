// Package drefix exercises discarded-run-error: the fault result of the
// execution hot path is matched by receiver type, so unrelated Run methods
// stay legal (the old checker's false positive) and method values of
// .Run/.RunInterpreted are caught (its false negative).
package drefix

import (
	"tscout/internal/bpf"
	"tscout/internal/kernel"
	"tscout/internal/tscout"
)

func bare(lp *bpf.LoadedProgram, t *kernel.Task) {
	lp.Run(t, nil) // want:discarded-run-error
}

func interp(lp *bpf.LoadedProgram, t *kernel.Task) {
	lp.RunInterpreted(t, nil) // want:discarded-run-error
}

func inGoroutine(lp *bpf.LoadedProgram, t *kernel.Task) {
	go lp.Run(t, nil) // want:discarded-run-error
}

func blankFault(lp *bpf.LoadedProgram, t *kernel.Task) uint64 {
	ret, _, _ := lp.Run(t, nil) // want:discarded-run-error
	return ret
}

// Keeping the error is the contract: not flagged.
func handled(lp *bpf.LoadedProgram, t *kernel.Task) (uint64, error) {
	ret, _, err := lp.Run(t, nil)
	return ret, err
}

// A method value smuggles the call past statement-level checks: flagged at
// the selector, the old checker's false negative.
func methodValue(lp *bpf.LoadedProgram) func(*kernel.Task, []uint64) (uint64, int64, error) {
	return lp.Run // want:discarded-run-error
}

// An unrelated type with a Run method: the old name-matching checker
// flagged these. Not flagged.
type job struct{ done bool }

func (j *job) Run() { j.done = true }

func runJob(j *job) {
	j.Run()
}

func jobValue(j *job) func() {
	return j.Run
}

// Drain accounting may not be blanked away...
func blankDrain(p *tscout.Processor) {
	_ = p.Drain(tscout.DrainOptions{}) // want:discarded-run-error
}

func blankDrainBatch(r *bpf.PerCPURing, b *bpf.Batch) {
	_ = r.DrainBatch(0, b, 8) // want:discarded-run-error
}

// ...but a bare Drain is the quiesce idiom: not flagged.
func quiesce(p *tscout.Processor) {
	p.Drain(tscout.DrainOptions{})
}

func counted(r *bpf.PerCPURing, b *bpf.Batch) int {
	return r.DrainBatch(0, b, 8)
}
