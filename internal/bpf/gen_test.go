package bpf

import (
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

// runGenerated loads and executes p against a fresh single-task kernel,
// returning the run error (nil for clean completion).
func runGenerated(t *testing.T, p *Program, seed int64) error {
	t.Helper()
	lp, err := Load(p, 0)
	if err != nil {
		t.Fatalf("generated program failed verification: %v\n%s", err, p.Disassemble())
	}
	k := kernel.New(sim.LargeHW, seed, 0)
	task := k.NewTask("gen")
	_, _, rerr := lp.Run(task, []uint64{1, 2, 3, 4})
	return rerr
}

// TestGenProgramDeterministic: the same seed must produce byte-identical
// programs, or corpus replay is meaningless.
func TestGenProgramDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := genProgram(seed, 30)
		b := genProgram(seed, 30)
		if len(a.Insns) != len(b.Insns) {
			t.Fatalf("seed %d: lengths differ: %d vs %d", seed, len(a.Insns), len(b.Insns))
		}
		for i := range a.Insns {
			if a.Insns[i] != b.Insns[i] {
				t.Fatalf("seed %d: insn %d differs: %v vs %v", seed, i, a.Insns[i], b.Insns[i])
			}
		}
	}
}

// TestGenProgramsVerifyAndRun is the generator's validity argument made
// executable: every generated program must verify and then run to clean
// completion (the §5.1 contract, from the constructive side).
func TestGenProgramsVerifyAndRun(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		steps := int(seed%37) + 1
		p := genProgram(seed, steps)
		if err := runGenerated(t, p, seed); err != nil {
			t.Fatalf("seed %d steps %d: runtime fault: %v\n%s", seed, steps, err, p.Disassemble())
		}
	}
}

// TestInsnCodecRoundTrip: Encode/Decode must be inverse on every generated
// program so corpus entries reproduce the exact instruction stream.
func TestInsnCodecRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		p := genProgram(seed, 25)
		got := decodeInsns(encodeInsns(p.Insns))
		if len(got) != len(p.Insns) {
			t.Fatalf("seed %d: round trip length %d != %d", seed, len(got), len(p.Insns))
		}
		for i := range got {
			if got[i] != p.Insns[i] {
				t.Fatalf("seed %d: insn %d: %v != %v", seed, i, got[i], p.Insns[i])
			}
		}
	}
}

// TestDecodeInsnsTruncation: partial trailing records are dropped, and
// oversized inputs are capped, never rejected.
func TestDecodeInsnsTruncation(t *testing.T) {
	p := genProgram(1, 10)
	enc := encodeInsns(p.Insns)
	got := decodeInsns(enc[:len(enc)-3])
	if len(got) != len(p.Insns)-1 {
		t.Fatalf("truncated decode: %d insns, want %d", len(got), len(p.Insns)-1)
	}
	huge := make([]byte, (maxDecodedInsns+10)*insnWireBytes)
	if n := len(decodeInsns(huge)); n != maxDecodedInsns {
		t.Fatalf("cap: decoded %d insns, want %d", n, maxDecodedInsns)
	}
}

// TestMutateInsnsDeterministic: mutation is a pure function of its inputs.
func TestMutateInsnsDeterministic(t *testing.T) {
	p := genProgram(7, 20)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	a := mutateInsns(p.Insns, data)
	b := mutateInsns(p.Insns, data)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("insn %d differs", i)
		}
	}
	// The original must be left untouched (mutation copies).
	q := genProgram(7, 20)
	for i := range p.Insns {
		if p.Insns[i] != q.Insns[i] {
			t.Fatalf("mutateInsns modified its input at insn %d", i)
		}
	}
}

// TestReadCounterOutOfRange is the regression test for the helper crash
// found by the fuzz harness: a verified program feeding an arbitrary
// counter selector into read_perf_counter panicked in PerfContext.Read
// instead of reading 0.
func TestReadCounterOutOfRange(t *testing.T) {
	p := NewBuilder("badctr").
		Mov(R1, 9999).
		Mov(R2, int64(CounterPartRaw)).
		Call(HelperReadCounter).
		Exit().MustBuild()
	lp, err := Load(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(sim.LargeHW, 1, 0)
	ret, _, rerr := lp.Run(k.NewTask("w"), nil)
	if rerr != nil {
		t.Fatalf("run: %v", rerr)
	}
	if ret != 0 {
		t.Fatalf("invalid counter read %d, want 0", ret)
	}
}

// TestGeneratorEmitsFusedShapes: the generator's Collector shapes must
// reach the peephole as the super-ops they exist for — I/O probe triples,
// copy and delta runs, the guard ladder, map calls with the code around
// them — so FuzzVerifyThenRun compares each with the interpreter.
func TestGeneratorEmitsFusedShapes(t *testing.T) {
	want := []microKind{muIOACStore, muSockStore, muLoadObjStoreRun, muDeltaObjRun, muArgLadder, muCallFrame}
	seen := map[microKind]int{}
	for seed := int64(0); seed < 3000; seed++ {
		cc, err := decodeProgram(genProgram(seed, int(seed%15)+1))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for pc := 0; pc < len(cc.fns); {
			run := cc.run(pc)
			if len(run) == 0 {
				pc++
				continue
			}
			for _, op := range cc.peephole(run) {
				seen[op.kind]++
			}
			pc += len(run)
		}
	}
	for _, k := range want {
		if seen[k] == 0 {
			t.Errorf("micro kind %d never came out of a generated program", k)
		}
	}
	t.Logf("fused ops: %v", seen)
}
