package bpf

import (
	"fmt"
	"reflect"
	"testing"

	"tscout/internal/sim"
)

// fusedKinds decodes p and returns every micro-op kind the peephole leaves
// in its blocks, with the count argument (imm) of each run kind.
func fusedKinds(t *testing.T, p *Program) (kinds map[microKind]int, runLens []uint64) {
	t.Helper()
	cc, err := decodeProgram(p)
	if err != nil {
		t.Fatalf("%s: %v\n%s", p.Name, err, p.Disassemble())
	}
	kinds = map[microKind]int{}
	for pc := 0; pc < len(cc.fns); {
		run := cc.run(pc)
		if len(run) == 0 {
			pc++
			continue
		}
		for _, op := range cc.peephole(run) {
			kinds[op.kind]++
			if op.kind == muLoadObjStoreRun || op.kind == muDeltaObjRun {
				runLens = append(runLens, op.imm)
			}
		}
		pc += len(run)
	}
	return kinds, runLens
}

// agreeAtUnitCost runs p interpreted and compiled at 1 ns per instruction,
// where one miscounted instruction changes the cost, and requires the two
// to agree on everything observable.
func agreeAtUnitCost(t *testing.T, p *Program) variantResult {
	t.Helper()
	unit := sim.LargeHW
	unit.BPFInsnNS = 1
	ir := runExecVariant(t, unit, p.Name, p.Insns, 3, interpreted)
	cr := runExecVariant(t, unit, p.Name, p.Insns, 3, (*LoadedProgram).Run)
	if ir.err != nil || !reflect.DeepEqual(ir, cr) {
		t.Fatalf("%s diverged:\ninterp   %+v\ncompiled %+v\n%s", p.Name, ir, cr, p.Disassemble())
	}
	return ir
}

// ladderProgram builds FEATURES' guarded argument copy with n rungs over a
// count the verifier cannot see, then returns
// a hash of the copied slots and the last rung's r0.
func ladderProgram(n, count int) *Program {
	b := genMapsBuilder(fmt.Sprintf("jit/ladder/%d/%d", n, count))
	for i := 0; i < n; i++ {
		b.StoreImm(R10, int32(-8*(n-i)), 1000)
	}
	b.Mov(R0, 7).Mov(R1, 9)
	// args[0] is 1, which the verifier does not know: r6 = count.
	b.Mov(R1, 0).Call(HelperGetArg).MovReg(R6, R0).Sub(R6, 1).Lsh(R6, 10).Add(R6, int64(count))
	for i := 0; i < n; i++ {
		b.Jle(R6, int64(i), "done").
			Mov(R1, int64(i)).Call(HelperGetArg).
			Store(R10, int32(-8*(n-i)), R0)
	}
	b.Label("done").MovReg(R7, R0).Mov(R8, 31)
	for i := 0; i < n; i++ {
		b.Load(R2, R10, int32(-8*(n-i))).MulReg(R7, R8).AddReg(R7, R2)
	}
	return b.MovReg(R0, R7).Exit().MustBuild()
}

// TestArgLadderExitsAtEveryRung runs the fused guard ladder leaving at each
// rung, and running through, against the interpreter: same R0 (the copied
// slots and the last rung's r0), the same cost at 1 ns per
// instruction, the same event stream.
func TestArgLadderExitsAtEveryRung(t *testing.T) {
	for _, n := range []int{2, 5, 16} {
		results := map[uint64]bool{}
		for count := 0; count <= n+1; count++ {
			p := ladderProgram(n, count)
			if kinds, _ := fusedKinds(t, p); kinds[muArgLadder] != 1 {
				t.Fatalf("%s: %d ladders fused, want 1", p.Name, kinds[muArgLadder])
			}
			results[agreeAtUnitCost(t, p).r0] = true
		}
		if len(results) != n+1 {
			t.Fatalf("%d rungs: %d distinct results over %d exits", n, len(results), n+2)
		}
	}
}

// wideSlot is the frame offset of stack word i (0–11, ascending
// addresses) in the wide-run programs; the key sits at -8.
func wideSlot(i int) int32 { return int32(-8*(genWideWords+1) + 8*i) }

// wideLookup starts a program that looks up the wide per-task map (always
// present) and keeps the value pointer in r6, with stack word i holding
// 100+i.
func wideLookup(name string) *Builder {
	b := genMapsBuilder(name)
	for i := 0; i < genWideWords; i++ {
		b.StoreImm(R10, wideSlot(i), int64(100+i))
	}
	b.StoreImm(R10, -8, 0)
	b.LoadMapPtr(R1, genMapWide).MovReg(R2, R10).Sub(R2, 8).
		Call(HelperMapLookup).Jeq(R0, 0, "out").MovReg(R6, R0)
	return b
}

// wideEnd hashes r1 and r2 — the scratch registers the runs leave their
// last words in — the stack words and the value's words into r0.
func wideEnd(b *Builder) *Program {
	b.MovReg(R7, R1).Mov(R8, 31).MulReg(R7, R8).AddReg(R7, R2)
	for i := 0; i < genWideWords; i++ {
		b.Load(R2, R10, wideSlot(i)).MulReg(R7, R8).AddReg(R7, R2).
			Load(R2, R6, int32(8*i)).MulReg(R7, R8).AddReg(R7, R2)
	}
	b.MovReg(R0, R7).Exit()
	b.Label("out").Mov(R0, 0).Exit()
	return b.MustBuild()
}

// TestRunFusionNearMisses holds the run and ladder fusions to the shapes
// they are sound for. Each program is one step away from a fusable run — a
// slot out of line, an aliased register, a jump target inside the run —
// and must fuse only the part that is still a run, and agree with the
// interpreter either way.
func TestRunFusionNearMisses(t *testing.T) {
	// A delta pass first makes the value words differ from zero.
	deltas := func(b *Builder, words ...int) {
		for _, w := range words {
			b.Load(R1, R10, wideSlot(w)).Load(R2, R6, int32(8*w)).
				SubReg(R1, R2).Store(R6, int32(8*w), R1)
		}
	}
	copies := func(b *Builder, pairs ...[2]int) {
		for _, p := range pairs {
			b.Load(R1, R6, int32(8*p[0])).Store(R10, wideSlot(p[1]), R1)
		}
	}
	cases := []struct {
		name    string
		build   func(b *Builder)
		wantRun []uint64 // run lengths that must fuse, in order
	}{
		{"adjacent", func(b *Builder) {
			deltas(b, 0, 1, 2, 3)
			copies(b, [2]int{0, 4}, [2]int{1, 5}, [2]int{2, 6})
		}, []uint64{4, 3}},
		{"copy-slot-gap", func(b *Builder) {
			deltas(b, 0, 1)
			copies(b, [2]int{0, 4}, [2]int{1, 6}, [2]int{2, 7})
		}, []uint64{2, 2}},
		{"delta-word-gap", func(b *Builder) {
			deltas(b, 0, 2, 3)
		}, []uint64{2}},
		{"delta-aliased-register", func(b *Builder) {
			deltas(b, 0)
			b.Load(R1, R10, wideSlot(1)).Load(R1, R6, 8).SubReg(R1, R1).Store(R6, 8, R1)
			deltas(b, 2)
		}, nil},
		{"copy-scratch-changes", func(b *Builder) {
			deltas(b, 0, 1, 2)
			copies(b, [2]int{0, 4})
			b.Load(R3, R6, 8).Store(R10, wideSlot(5), R3)
			copies(b, [2]int{2, 6})
		}, []uint64{3}},
		{"copy-jump-target-inside", func(b *Builder) {
			deltas(b, 0, 1, 2, 3)
			b.Jeq(R1, 12345, "mid")
			copies(b, [2]int{0, 4}, [2]int{1, 5})
			b.Label("mid")
			copies(b, [2]int{2, 6}, [2]int{3, 7})
		}, []uint64{4, 2, 2}},
	}
	for _, c := range cases {
		b := wideLookup("jit/near/" + c.name)
		c.build(b)
		p := wideEnd(b)
		if _, runs := fusedKinds(t, p); !reflect.DeepEqual(runs, c.wantRun) {
			t.Errorf("%s: fused runs of %v, want %v", c.name, runs, c.wantRun)
		}
		agreeAtUnitCost(t, p)
	}

	// A ladder whose guard register is one the rungs write (r0) does not
	// fuse.
	b := genMapsBuilder("jit/near/ladder-guard-r0")
	b.Mov(R1, 0).Call(HelperGetArg).Add(R0, 2)
	for i := 0; i < 4; i++ {
		b.Jle(R0, int64(i), "done").Mov(R1, int64(i)).Call(HelperGetArg).
			Store(R10, int32(-8*(4-i)), R0)
	}
	p := b.Label("done").Exit().MustBuild()
	if kinds, _ := fusedKinds(t, p); kinds[muArgLadder] != 0 {
		t.Errorf("a ladder guarded by r0 fused")
	}
	agreeAtUnitCost(t, p)

	// A jump target at a rung cuts the ladder: the rungs before it fuse.
	b = genMapsBuilder("jit/near/ladder-target")
	b.Mov(R1, 0).Call(HelperGetArg).MovReg(R6, R0).Add(R6, 2)
	b.Jeq(R6, 99, "rung2")
	for i := 0; i < 4; i++ {
		if i == 2 {
			b.Label("rung2")
		}
		b.Jle(R6, int64(i), "done").Mov(R1, int64(i)).Call(HelperGetArg).
			Store(R10, int32(-8*(4-i)), R0)
	}
	p = b.Label("done").MovReg(R0, R6).Exit().MustBuild()
	if kinds, _ := fusedKinds(t, p); kinds[muArgLadder] != 2 {
		t.Errorf("a ladder cut by a jump target: %d ladders, want 2", kinds[muArgLadder])
	}
	agreeAtUnitCost(t, p)
}
