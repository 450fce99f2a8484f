package bpf_test

import (
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tscout/internal/bpf"
	"tscout/internal/tscout"
)

// These tests hold a Collector deploy to its two promises: LoadOptimized
// loads exactly what Load(Optimize(p)) would, and an analysis costs a fixed
// number of allocations however many abstract steps it takes. They live in
// an external test package because tscout imports bpf.

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

func TestLoadOptimizedMatchesLoadOfOptimize(t *testing.T) {
	programs := 0
	forEachVetProgram(func(name string, p *bpf.Program) {
		programs++
		opt, wantStats, err := bpf.Optimize(p, 0)
		if err != nil {
			t.Fatalf("%s: Optimize: %v", name, err)
		}
		want, err := bpf.Load(opt, 0)
		if err != nil {
			t.Fatalf("%s: Load: %v", name, err)
		}
		got, gotStats, err := bpf.LoadOptimized(p, 0)
		if err != nil {
			t.Fatalf("%s: LoadOptimized: %v", name, err)
		}
		if gotStats != wantStats {
			t.Fatalf("%s: OptStats %+v, Optimize's %+v", name, gotStats, wantStats)
		}
		if !slices.Equal(got.Program().Insns, want.Program().Insns) {
			t.Fatalf("%s: instructions differ:\n%s\nwant:\n%s", name,
				got.Program().Disassemble(), want.Program().Disassemble())
		}
		if !slices.Equal(bpf.PtrALU(got), bpf.PtrALU(want)) {
			t.Fatalf("%s: ptrALU %v, want %v", name, bpf.PtrALU(got), bpf.PtrALU(want))
		}
		if d := bpf.ProofDiff(got, want); d != "" {
			t.Fatalf("%s: the kept analysis is not Load's: %s", name, d)
		}
		gotOps, gotErr := bpf.MicroOps(got)
		wantOps, wantErr := bpf.MicroOps(want)
		if gotErr != nil || wantErr != nil || gotOps != wantOps {
			t.Fatalf("%s: compiled forms differ (%v vs %v):\n%s\nwant:\n%s",
				name, gotErr, wantErr, gotOps, wantOps)
		}
	})
	if programs != 192 {
		t.Fatalf("swept %d programs, tsctl vet audits 192", programs)
	}
}

// TestCollectorAnalysesMatchOracle runs the differential of
// FuzzAnalyzeDifferential over the programs a deploy actually verifies, and
// their optimized forms.
func TestCollectorAnalysesMatchOracle(t *testing.T) {
	forEachVetProgram(func(name string, p *bpf.Program) {
		if d := bpf.AnalysesAgree(p); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
		opt, _, err := bpf.Optimize(p, 0)
		if err != nil {
			t.Fatalf("%s: Optimize: %v", name, err)
		}
		if d := bpf.AnalysesAgree(opt); d != "" {
			t.Fatalf("%s optimized: %s", name, d)
		}
	})
}

// TestCollectorLivenessMatchesFixpoint holds the one-pass Liveness to the
// round-robin fixpoint on the programs a deploy verifies, and their
// optimized forms.
func TestCollectorLivenessMatchesFixpoint(t *testing.T) {
	forEachVetProgram(func(name string, p *bpf.Program) {
		if d := bpf.LivenessAgrees(p); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
		opt, _, err := bpf.Optimize(p, 0)
		if err != nil {
			t.Fatalf("%s: Optimize: %v", name, err)
		}
		if d := bpf.LivenessAgrees(opt); d != "" {
			t.Fatalf("%s optimized: %s", name, d)
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

var failingInsnRe = regexp.MustCompile(`insn (\d+) \(`)

// TestOptimizerFailureNamesItsOwnInstruction makes the optimizer's first
// round drop a null check, so the second round's analysis rejects a
// program GenerateCollector never saw. The error must name that program's
// instruction — once — and not the input's instruction at the same pc.
func TestOptimizerFailureNamesItsOwnInstruction(t *testing.T) {
	var built *bpf.Program
	defer bpf.SetRoundHook(func(round int, p *bpf.Program) *bpf.Program {
		if round == 0 && built == nil {
			built = bpf.DropFirstNullCheck(p)
			return built
		}
		return p
	})()
	res := tscout.ResourceSet{CPU: true, Memory: true, Disk: true, Network: true}
	_, err := tscout.GenerateCollector(tscout.SubsystemExecutionEngine, res,
		tscout.CollectorConfig{NumCPUs: 1, PerCPUCapacity: 16, Optimize: true})
	if err == nil || built == nil {
		t.Fatalf("the hooked round did not fail the deploy (hook ran: %v)", built != nil)
	}
	if !errors.Is(err, bpf.ErrVerification) {
		t.Fatalf("not a verification failure: %v", err)
	}
	if ve := new(bpf.VerifyError); errors.As(err, &ve) {
		t.Fatalf("a failure of an optimizer-built program unwraps to a VerifyError callers would index their input with: %v", err)
	}
	if !strings.Contains(err.Error(), "round 1 produced an unverifiable program") ||
		!strings.Contains(err.Error(), "possibly-NULL map value dereference") {
		t.Fatalf("unexpected failure: %v", err)
	}
	m := failingInsnRe.FindAllStringSubmatch(err.Error(), -1)
	if len(m) != 1 {
		t.Fatalf("error names %d failing instructions, want 1: %v", len(m), err)
	}
	pc, _ := strconv.Atoi(m[0][1])
	if pc >= len(built.Insns) {
		t.Fatalf("failing pc %d outside the %d-insn program round 1 analyzed: %v", pc, len(built.Insns), err)
	}
	if want := fmt.Sprintf("insn %d (%s): ", pc, built.Insns[pc]); !strings.Contains(err.Error(), want) {
		t.Fatalf("error does not name round 1's instruction %q: %v", want, err)
	}
	input := tscout.CollectorPrograms(tscout.SubsystemExecutionEngine, res)[0].Prog
	if in := input.Insns[pc].String(); in != built.Insns[pc].String() && strings.Contains(err.Error(), in) {
		t.Fatalf("error names the input program's insn %d (%s): %v", pc, in, err)
	}
}
