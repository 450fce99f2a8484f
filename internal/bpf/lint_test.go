package bpf

import (
	"strings"
	"testing"
)

func findingsByRule(fs []Finding) map[string][]Finding {
	m := make(map[string][]Finding)
	for _, f := range fs {
		m[f.Rule] = append(m[f.Rule], f)
	}
	return m
}

func TestLintCleanProgram(t *testing.T) {
	p := NewBuilder("clean").
		Call(HelperKtime).
		Exit().
		MustBuild()
	fs, err := Lint(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("expected no findings, got %v", fs)
	}
}

func TestLintRules(t *testing.T) {
	p := NewBuilder("lint-all").
		StoreImm(R10, -8, 41). // dead store (shadowed below)
		StoreImm(R10, -8, 42).
		Load(R1, R10, -8).
		Mov(R2, 3). // dead code: R2 never read
		Mov(R0, 5).
		Jeq(R0, 5, "t"). // always taken
		Mov(R0, 99).     // unreachable
		Label("t").
		Call(HelperKtime). // dead helper result: R0 overwritten
		Mov(R0, 0).
		Exit().
		MustBuild()
	fs, err := Lint(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	by := findingsByRule(fs)
	for _, rule := range []string{RuleDeadStore, RuleDeadCode, RuleBranchAlways, RuleUnreachable, RuleDeadHelperResult} {
		if len(by[rule]) == 0 {
			t.Errorf("expected a %s finding, got %v", rule, fs)
		}
	}
	// Findings must be in ascending pc order.
	last := -1
	for _, f := range fs {
		if f.PC < last {
			t.Fatalf("findings out of order: %v", fs)
		}
		last = f.PC
	}
}

func TestLintBranchNeverTaken(t *testing.T) {
	p := NewBuilder("never").
		Mov(R0, 1).
		Jeq(R0, 2, "x").
		Exit().
		Label("x").
		Mov(R0, 9).
		Exit().
		MustBuild()
	fs, err := Lint(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	by := findingsByRule(fs)
	if len(by[RuleBranchNever]) != 1 {
		t.Fatalf("expected one branch-never-taken, got %v", fs)
	}
	if len(by[RuleUnreachable]) == 0 {
		t.Fatalf("expected unreachable target, got %v", fs)
	}
}

func TestLintConstFoldable(t *testing.T) {
	p := NewBuilder("fold").
		Mov(R0, 6).
		Add(R0, 36). // const-foldable, result live
		Exit().
		MustBuild()
	fs, err := Lint(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	by := findingsByRule(fs)
	if len(by[RuleConstFoldable]) != 1 {
		t.Fatalf("expected one const-foldable, got %v", fs)
	}
	if by[RuleConstFoldable][0].Severity != SevInfo {
		t.Fatalf("const-foldable must be info severity: %v", fs)
	}
	if !strings.Contains(by[RuleConstFoldable][0].Message, "42") {
		t.Fatalf("message should name the folded value: %v", by[RuleConstFoldable][0])
	}
}

func TestLintUnusedMap(t *testing.T) {
	p := NewBuilder("maps")
	p.AddMap(NewArrayMap("unused", 8, 1))
	p.Mov(R0, 0).Exit()
	fs, err := Lint(p.MustBuild(), 0)
	if err != nil {
		t.Fatal(err)
	}
	by := findingsByRule(fs)
	if len(by[RuleUnusedMap]) != 1 {
		t.Fatalf("expected one unused-map, got %v", fs)
	}
	if f := by[RuleUnusedMap][0]; f.PC != -1 || !strings.Contains(f.Message, "unused") {
		t.Fatalf("unexpected unused-map finding: %+v", f)
	}
}

func TestLintRejectsUnverifiable(t *testing.T) {
	p := &Program{Name: "bad", Insns: []Insn{{Op: OpExit}}}
	if _, err := Lint(p, 0); err == nil {
		t.Fatal("expected verification error")
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{PC: 3, Rule: RuleDeadCode, Severity: SevWarn, Message: "x"}
	if got := f.String(); got != "insn 3: warn: dead-code: x" {
		t.Fatalf("got %q", got)
	}
	f = Finding{PC: -1, Rule: RuleUnusedMap, Severity: SevWarn, Message: "y"}
	if got := f.String(); got != "warn: unused-map: y" {
		t.Fatalf("got %q", got)
	}
}
