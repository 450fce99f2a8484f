package bpf_test

import (
	"fmt"
	"testing"

	"tscout/internal/bpf"
	"tscout/internal/tscout"
)

// These tests hold the analyses a Collector deploy runs to their oracles,
// and an analysis to a fixed number of allocations however many abstract
// steps it takes. They live in an external test package because tscout
// imports bpf.

// forEachVetProgram calls f on every program `tsctl vet` audits: 4
// subsystems × 16 resource masks × 3 markers.
func forEachVetProgram(f func(name string, p *bpf.Program)) {
	for _, sub := range tscout.AllSubsystems {
		for mask := 0; mask < 16; mask++ {
			res := tscout.ResourceSet{
				CPU: mask&1 != 0, Memory: mask&2 != 0,
				Disk: mask&4 != 0, Network: mask&8 != 0,
			}
			for _, np := range tscout.CollectorPrograms(sub, res) {
				f(fmt.Sprintf("%s/%s mask=%d", sub, np.Name, mask), np.Prog)
			}
		}
	}
}

// TestCollectorAnalysesMatchOracle runs the differential of
// FuzzAnalyzeDifferential over the programs a deploy actually verifies.
func TestCollectorAnalysesMatchOracle(t *testing.T) {
	programs := 0
	forEachVetProgram(func(name string, p *bpf.Program) {
		programs++
		if d := bpf.AnalysesAgree(p); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	})
	if programs != 192 {
		t.Fatalf("swept %d programs, tsctl vet audits 192", programs)
	}
}

// TestCollectorLivenessMatchesFixpoint holds the one-pass Liveness to the
// round-robin fixpoint on the programs a deploy verifies.
func TestCollectorLivenessMatchesFixpoint(t *testing.T) {
	forEachVetProgram(func(name string, p *bpf.Program) {
		if d := bpf.LivenessAgrees(p); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	})
}

// analyzeAllocs is the allocation count of one Analyze: the Analysis, its
// per-pc flag slab and the in-states. A step allocates nothing.
const analyzeAllocs = 3

func TestAnalyzeAllocatesPerProgramNotPerStep(t *testing.T) {
	full := tscout.ResourceSet{CPU: true, Memory: true, Disk: true, Network: true}
	for _, np := range tscout.CollectorPrograms(tscout.SubsystemExecutionEngine, full) {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := bpf.Analyze(np.Prog, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != analyzeAllocs {
			t.Errorf("%s (%d insns): Analyze allocates %v times, want %d", np.Name, len(np.Prog.Insns), allocs, analyzeAllocs)
		}
	}
}
