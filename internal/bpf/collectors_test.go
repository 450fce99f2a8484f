package bpf_test

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"tscout/internal/bpf"
	"tscout/internal/tscout"
)

// These tests live beside the JIT, in an external test package, because
// the micro kinds are unexported and tscout imports bpf.

// forEachCollector calls f on every Collector program codegen can emit:
// 4 subsystems × 16 resource masks × 3 markers, unoptimized and then
// optimized. name identifies the program.
func forEachCollector(t *testing.T, f func(name string, lp *bpf.LoadedProgram)) {
	t.Helper()
	for _, optimize := range []bool{false, true} {
		for _, sub := range tscout.AllSubsystems {
			for mask := 0; mask < 16; mask++ {
				col, err := tscout.GenerateCollector(sub, tscout.ResourceSet{
					CPU: mask&1 != 0, Memory: mask&2 != 0,
					Disk: mask&4 != 0, Network: mask&8 != 0,
				}, tscout.CollectorConfig{NumCPUs: 1, PerCPUCapacity: 16, Optimize: optimize})
				if err != nil {
					t.Fatalf("%s mask=%d optimize=%v: %v", sub, mask, optimize, err)
				}
				for _, lp := range []*bpf.LoadedProgram{col.Begin, col.End, col.Features} {
					f(fmt.Sprintf("%s mask=%d optimize=%v %s", sub, mask, optimize, lp.Program().Name), lp)
				}
			}
		}
	}
}

// TestEveryPatternFiresOnCollectors sweeps every Collector program and
// requires each pattern super-op kind to come out of a peephole pass at
// least once: the patterns exist only because codegen emits their shapes,
// so one that stops matching is dead code and must fail here rather than
// linger.
func TestEveryPatternFiresOnCollectors(t *testing.T) {
	var counts [len(bpf.PatternNames)]int
	forEachCollector(t, func(name string, lp *bpf.LoadedProgram) {
		if err := bpf.PatternCounts(lp, &counts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	})
	for i, n := range counts {
		if n == 0 {
			t.Errorf("pattern %d (%s) matched nothing in any Collector program", i, bpf.PatternNames[i])
		}
	}
	t.Logf("pattern counts %v", counts)
}

// TestEveryCollectorCallIsAFrame is the call census: every impure helper
// call of every Collector binds a callFrame that matchFrame folds, so no
// bare muHelperCall survives peephole and no call ends its block through
// genericCall. Without it, a codegen change that moved a key off an exact
// stack slot would quietly send that call to the interpreter's dispatcher.
func TestEveryCollectorCallIsAFrame(t *testing.T) {
	calls, framed := 0, 0
	forEachCollector(t, func(name string, lp *bpf.LoadedProgram) {
		c, f, err := bpf.FramedCalls(lp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f != c {
			t.Errorf("%s: %d of %d impure calls fold into a call frame", name, f, c)
		}
		calls, framed = calls+c, framed+f
	})
	if calls == 0 {
		t.Fatal("no Collector makes an impure helper call")
	}
	t.Logf("%d of %d impure calls fold into a call frame", framed, calls)
}

// TestISAIsWhatCodegenEmits is the instruction set's census: every opcode
// the verifier knows and every helper it lets a program call must be
// emitted by some Collector program. The VM exists to run what codegen
// emits, so an instruction or helper with no caller fails here instead of
// growing the verifier, interpreter and JIT for nothing.
func TestISAIsWhatCodegenEmits(t *testing.T) {
	ops, helpers := map[bpf.Op]bool{}, map[int64]bool{}
	forEachCollector(t, func(_ string, lp *bpf.LoadedProgram) {
		for _, in := range lp.Program().Insns {
			ops[in.Op] = true
			if in.Op == bpf.OpCall {
				helpers[in.Imm] = true
			}
		}
	})
	for op := 0; op < 256; op++ {
		p := &bpf.Program{Name: "census", Insns: []bpf.Insn{
			{Op: bpf.OpMovImm, Dst: bpf.R0}, {Op: bpf.Op(op)}, {Op: bpf.OpExit}}}
		var ve *bpf.VerifyError
		known := !errors.As(bpf.Verify(p, 0), &ve) || ve.PC != 1 || !strings.HasPrefix(ve.Msg, "invalid opcode")
		if known && !ops[bpf.Op(op)] {
			t.Errorf("opcode %d (%s) is in the ISA, but no Collector emits it", op, bpf.Insn{Op: bpf.Op(op)})
		}
	}
	for id := int64(0); id < 256; id++ {
		if spec, ok := bpf.HelperByID(id); ok && !helpers[id] {
			t.Errorf("helper %d (%s) is callable, but no Collector calls it", id, spec.Name)
		}
	}
}

// TestCollectorDump renders every Collector program as its disassembly
// followed by its micro-ops (MicroOps). With COLLECTOR_DUMP set it writes
// the rendering to that file, so a change to the verifier, optimizer or JIT
// can be shown not to move one instruction: run it on both trees and cmp
// the two files.
func TestCollectorDump(t *testing.T) {
	var b strings.Builder
	forEachCollector(t, func(name string, lp *bpf.LoadedProgram) {
		ops, err := bpf.MicroOps(lp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "== %s\n%s-- micro-ops\n%s", name, lp.Program().Disassemble(), ops)
	})
	if path := os.Getenv("COLLECTOR_DUMP"); path != "" {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
