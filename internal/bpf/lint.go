package bpf

import "fmt"

// Lint runs the same dataflow facts the verifier and JIT use and
// reports *suspicious but legal* constructs as structured diagnostics,
// the queryable analysis surface TAAF argues for: a bare accept/reject
// bit hides exactly the information a Codegen author needs to see.

// Severity ranks a lint finding.
type Severity uint8

// Severities.
const (
	SevInfo Severity = iota
	SevWarn
)

func (s Severity) String() string {
	if s == SevInfo {
		return "info"
	}
	return "warn"
}

// Lint rule names.
const (
	RuleDeadStore        = "dead-store"
	RuleDeadCode         = "dead-code"
	RuleDeadHelperResult = "dead-helper-result"
	RuleBranchAlways     = "branch-always-taken"
	RuleBranchNever      = "branch-never-taken"
	RuleUnreachable      = "unreachable"
	RuleUnusedMap        = "unused-map"
	RuleConstFoldable    = "const-foldable"
)

// Finding is one lint diagnostic, anchored at a pc (or a map index for
// unused-map, with PC = -1).
type Finding struct {
	PC       int
	Rule     string
	Severity Severity
	Message  string
}

func (f Finding) String() string {
	if f.PC < 0 {
		return fmt.Sprintf("%s: %s: %s", f.Severity, f.Rule, f.Message)
	}
	return fmt.Sprintf("insn %d: %s: %s: %s", f.PC, f.Severity, f.Rule, f.Message)
}

// Lint verifies p and reports diagnostics in deterministic order
// (ascending pc, then program-level findings). A program that fails
// verification returns the verification error instead.
func Lint(p *Program, maxInsns int) ([]Finding, error) {
	a, err := Analyze(p, maxInsns)
	if err != nil {
		return nil, err
	}
	lv := a.Liveness()
	var out []Finding
	add := func(pc int, rule string, sev Severity, format string, args ...any) {
		out = append(out, Finding{PC: pc, Rule: rule, Severity: sev, Message: fmt.Sprintf(format, args...)})
	}

	usedMaps := make([]bool, len(p.Maps))
	for pc, in := range p.Insns {
		if !a.Reached(pc) {
			add(pc, RuleUnreachable, SevWarn, "no feasible path reaches %q", in.String())
			continue
		}
		if in.Op == OpLoadMapPtr {
			usedMaps[in.Imm] = true
		}
		switch {
		case isJump(in.Op):
			taken, fall := a.CondEdges(pc)
			if taken && !fall {
				add(pc, RuleBranchAlways, SevWarn, "%q is always taken", in.String())
			}
			if !taken && fall {
				add(pc, RuleBranchNever, SevWarn, "%q is never taken", in.String())
			}
		case isALU(in.Op) && in.Op != OpMovImm:
			if lv.LiveOutRegs(pc)&regBit(in.Dst) == 0 {
				add(pc, RuleDeadCode, SevWarn, "result of %q is never read", in.String())
			} else if c, ok := a.foldableConst(pc, in); ok {
				add(pc, RuleConstFoldable, SevInfo, "%q always evaluates to %d", in.String(), c)
			}
		case in.Op == OpMovImm, in.Op == OpMovReg, in.Op == OpLoad, in.Op == OpLoadMapPtr:
			if lv.LiveOutRegs(pc)&regBit(in.Dst) == 0 {
				add(pc, RuleDeadCode, SevWarn, "result of %q is never read", in.String())
			}
		case in.Op == OpStore, in.Op == OpStoreImm:
			base := a.states[pc].regs[in.Dst]
			if base.kind != rkPtrStack || base.lo != base.hi {
				continue
			}
			lo := base.lo + int64(in.Off)
			dead := true
			for i := int64(0); i < 8; i++ {
				if lv.LiveOutStackByte(pc, int(lo+i+StackSize)) {
					dead = false
					break
				}
			}
			if dead {
				add(pc, RuleDeadStore, SevWarn, "stack bytes written by %q are never read", in.String())
			}
		case in.Op == OpCall:
			spec, _ := HelperByID(in.Imm)
			if spec.Pure && lv.LiveOutRegs(pc)&regBit(R0) == 0 {
				add(pc, RuleDeadHelperResult, SevWarn, "result of pure helper %s is never read", spec.Name)
			}
		}
	}
	for i, used := range usedMaps {
		if !used {
			add(-1, RuleUnusedMap, SevWarn, "map %d (%q) is never referenced", i, p.Maps[i].Name())
		}
	}
	return out, nil
}

// foldableConst reports whether the scalar ALU instruction at pc always
// produces the same value, using the analysis in-state.
func (a *Analysis) foldableConst(pc int, in Insn) (int64, bool) {
	st := &a.states[pc]
	dst := st.regs[in.Dst]
	var src regState
	if isRegSrc(in.Op) {
		src = st.regs[in.Src]
	} else {
		src = constReg(in.Imm)
	}
	if in.Op == OpMovReg {
		if src.kind == rkScalar && src.vr.IsConst() {
			return int64(src.vr.Const()), true
		}
		return 0, false
	}
	if dst.kind != rkScalar || src.kind != rkScalar {
		return 0, false
	}
	out := vrTransfer(in.Op, dst.vr, src.vr)
	if out.IsConst() {
		return int64(out.Const()), true
	}
	return 0, false
}
