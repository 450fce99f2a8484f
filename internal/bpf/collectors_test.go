package bpf_test

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tscout/internal/bpf"
	"tscout/internal/tscout"
)

// These tests live beside the JIT, in an external test package, because
// the micro kinds are unexported and tscout imports bpf.

var update = flag.Bool("update", false, "rewrite testdata/collectors.golden from this run")

// forEachCollector calls f on every Collector program codegen can emit:
// 4 subsystems × 16 resource masks × 3 markers. name identifies the
// program.
func forEachCollector(t *testing.T, f func(name string, lp *bpf.LoadedProgram)) {
	t.Helper()
	for _, sub := range tscout.AllSubsystems {
		for mask := 0; mask < 16; mask++ {
			col, err := tscout.GenerateCollector(sub, tscout.ResourceSet{
				CPU: mask&1 != 0, Memory: mask&2 != 0,
				Disk: mask&4 != 0, Network: mask&8 != 0,
			}, tscout.CollectorConfig{NumCPUs: 1, PerCPUCapacity: 16})
			if err != nil {
				t.Fatalf("%s mask=%d: %v", sub, mask, err)
			}
			for _, lp := range []*bpf.LoadedProgram{col.Begin, col.End, col.Features} {
				f(fmt.Sprintf("%s mask=%d %s", sub, mask, lp.Program().Name), lp)
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

// TestCollectorDump holds every Collector program to
// testdata/collectors.golden: one line per program with its instruction
// count, its micro-op count (lines of MicroOps) and the FNV-64a of its
// disassembly followed by its micro-ops. A change to codegen, the verifier
// or the JIT that moves one instruction or micro-op fails here; -update
// rewrites the file. With COLLECTOR_DUMP set it also writes the full
// rendering to that file, so two trees' programs can be diffed.
func TestCollectorDump(t *testing.T) {
	var dump, golden strings.Builder
	forEachCollector(t, func(name string, lp *bpf.LoadedProgram) {
		ops, err := bpf.MicroOps(lp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dis := lp.Program().Disassemble()
		fmt.Fprintf(&dump, "== %s\n%s-- micro-ops\n%s", name, dis, ops)
		h := fnv.New64a()
		h.Write([]byte(dis))
		h.Write([]byte(ops))
		fmt.Fprintf(&golden, "%s insns=%d uops=%d fnv64a=%016x\n",
			name, len(lp.Program().Insns), strings.Count(ops, "\n"), h.Sum64())
	})
	if path := os.Getenv("COLLECTOR_DUMP"); path != "" {
		if err := os.WriteFile(path, []byte(dump.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "collectors.golden")
	if *update {
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test ./internal/bpf -run 'TestCollectorDump$' -update writes it)", err)
	}
	if got := golden.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for len(g) < len(w) {
			g = append(g, "")
		}
		for len(w) < len(g) {
			w = append(w, "")
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s moved (-update rewrites it): line %d is %q, want %q", path, i+1, g[i], w[i])
			}
		}
	}
}
