package bpf_test

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tscout/internal/bpf"
	"tscout/internal/kernel"
	"tscout/internal/sim"
	"tscout/internal/tscout"
)

// These tests live beside the JIT, in an external test package, because
// the micro kinds are unexported and tscout imports bpf.

var update = flag.Bool("update", false, "rewrite testdata/collectors.golden from this run")

// forEachCollector calls f on every Collector program codegen can emit:
// 4 subsystems × 8 resource masks × 3 markers. name identifies the
// program.
func forEachCollector(t *testing.T, f func(name string, lp *bpf.LoadedProgram)) {
	t.Helper()
	for _, sub := range tscout.AllSubsystems {
		for mask := 0; mask < 8; mask++ {
			col, err := tscout.GenerateCollector(sub, tscout.ResourceSet{
				CPU: mask&1 != 0, Disk: mask&2 != 0, Network: mask&4 != 0,
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
		if err := bpf.PatternCounts(lp.Program(), &counts); err != nil {
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
// bare muHelperCall survives peephole. Without it, a codegen change that
// broke the straight-line code around a call would quietly cost every hit
// a dispatch per call.
func TestEveryCollectorCallIsAFrame(t *testing.T) {
	calls, framed := 0, 0
	forEachCollector(t, func(name string, lp *bpf.LoadedProgram) {
		c, f, err := bpf.FramedCalls(lp.Program())
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
// the verifier knows, every helper it lets a program call, and every
// (helper, map type) pair it admits must be emitted by some Collector
// program. The VM exists to run what codegen emits, so an instruction,
// helper or map a helper may take with no caller fails here instead of
// growing the verifier, interpreter and JIT for nothing. The pairs are
// compared both ways, so a probe program that fails to verify for a reason
// of its own cannot pass the census by admitting nothing.
func TestISAIsWhatCodegenEmits(t *testing.T) {
	ops, helpers := map[bpf.Op]bool{}, map[int64]bool{}
	type pair struct {
		id  int64
		typ string
	}
	pairs := map[pair]bool{}
	forEachCollector(t, func(name string, lp *bpf.LoadedProgram) {
		for _, in := range lp.Program().Insns {
			ops[in.Op] = true
			if in.Op == bpf.OpCall {
				helpers[in.Imm] = true
			}
		}
		calls, err := bpf.MapCalls(lp.Program())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range calls {
			pairs[pair{c.ID, fmt.Sprintf("%T", c.Map)}] = true
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
	maps := []bpf.Map{bpf.NewHashMap("hash", 8, 1), bpf.NewArrayMap("array", 8, 1),
		bpf.NewPerTaskMap("pertask", 8), bpf.NewPerCPURing("ring", 1, 1)}
	admitted := map[pair]bool{}
	for id := int64(0); id < 256; id++ {
		spec, ok := bpf.HelperByID(id)
		if ok && !helpers[id] {
			t.Errorf("helper %d (%s) is callable, but no Collector calls it", id, spec.Name)
		}
		for _, m := range maps {
			// Call id with m and with every pointer argument at 16
			// initialized stack bytes, which hold any key and value here.
			b := bpf.NewBuilder("census").StoreImm(bpf.R10, -16, 0).StoreImm(bpf.R10, -8, 0)
			takesMap := false
			for i, kind := range spec.Args {
				r := bpf.R1 + bpf.Reg(i)
				switch kind {
				case bpf.ArgConstMap:
					b.LoadMapPtr(r, b.AddMap(m))
					takesMap = true
				case bpf.ArgPtrKey, bpf.ArgPtrValue, bpf.ArgPtrSized:
					b.MovReg(r, bpf.R10).Sub(r, 16)
				default:
					b.Mov(r, 8)
				}
			}
			p := b.Call(id).Mov(bpf.R0, 0).Exit().MustBuild()
			if takesMap && bpf.Verify(p, 0) == nil {
				admitted[pair{id, fmt.Sprintf("%T", m)}] = true
			}
		}
	}
	for pr := range admitted {
		if !pairs[pr] {
			t.Errorf("helper %d verifies on a %s, but no Collector calls it on one", pr.id, pr.typ)
		}
	}
	for pr := range pairs {
		if !admitted[pr] {
			t.Errorf("a Collector calls helper %d on a %s, but the census program for the pair does not verify", pr.id, pr.typ)
		}
	}
	t.Logf("(helper, map type) pairs: %v", pairs)
}

// TestEveryOperandFormIsDecoded is the ISA census one level down, from
// opcodes to operand forms: every micro-op kind an instruction can decode
// to must be what some instruction of some Collector program decodes to.
// An opcode codegen emits in one form only — a pointer moved by an
// immediate and never by a register, a stack access at one exact slot —
// keeps no JIT template, and no verifier rule, for the other.
func TestEveryOperandFormIsDecoded(t *testing.T) {
	var counts [len(bpf.DecodedKinds)]int
	forEachCollector(t, func(name string, lp *bpf.LoadedProgram) {
		if err := bpf.DecodeCounts(lp.Program(), &counts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	})
	for i, n := range counts {
		if n == 0 {
			k := bpf.DecodedKinds[i]
			t.Errorf("micro kind %d (%s) can be decoded, but no Collector instruction decodes to it", k.Kind, k.Name)
		}
	}
	t.Logf("decoded kinds %v", counts)
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
		ops, err := bpf.MicroOps(lp.Program())
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

// TestCollectorsMatchInterpreter is the JIT's differential over every
// production Collector: for each subsystem and resource mask it generates
// a Collector and its twin, drives the first through Run (the compiled
// blocks) and the twin through the interpreter over the same seeded stream
// of BEGIN/END/FEATURES hits on identical kernels, and requires every hit
// to return the same R0, cost and error, leave the same ring bytes, error
// slots and other map contents, and put the same impure helper calls and
// ring submits on their kernels' event streams, in the same order. The
// stream nests OUs, fires END and FEATURES with nothing in flight, and
// sends feature vectors up to and past full width. LargeHW charges 0.25 ns
// an instruction, so cost() rounds on most hits: the virtual cost is
// checked per hit, not assumed.
func TestCollectorsMatchInterpreter(t *testing.T) {
	type side struct {
		progs [3]*bpf.LoadedProgram // BEGIN, END, FEATURES
		run   [3]func(*kernel.Task, []uint64) (uint64, int64, error)
		maps  []bpf.Map
		k     *kernel.Kernel
		tasks [2]*kernel.Task
	}
	newSide := func(sub tscout.SubsystemID, res tscout.ResourceSet, interpret bool) *side {
		col, err := tscout.GenerateCollector(sub, res, tscout.CollectorConfig{NumCPUs: 2, PerCPUCapacity: 64})
		if err != nil {
			t.Fatalf("%s %+v: %v", sub, res, err)
		}
		s := &side{progs: [3]*bpf.LoadedProgram{col.Begin, col.End, col.Features}}
		seen := map[bpf.Map]bool{}
		for i, lp := range s.progs {
			s.run[i] = lp.Run
			if interpret {
				ip, err := bpf.NewInterpreter(lp)
				if err != nil {
					t.Fatal(err)
				}
				s.run[i] = ip.RunInterpreted
			}
			for _, m := range lp.Program().Maps {
				if !seen[m] {
					seen[m] = true
					s.maps = append(s.maps, m)
				}
			}
		}
		s.k = kernel.New(sim.LargeHW, 5, 0.02)
		s.tasks = [2]*kernel.Task{s.k.NewTaskOn("a", 0), s.k.NewTaskOn("b", 1)}
		s.k.Observe(make([]kernel.Event, 0, 1024))
		return s
	}
	var samples, nested, violations, calls int
	for _, sub := range tscout.AllSubsystems {
		for mask := 0; mask < 8; mask++ {
			res := tscout.ResourceSet{CPU: mask&1 != 0, Disk: mask&2 != 0, Network: mask&4 != 0}
			jit, ref := newSide(sub, res, false), newSide(sub, res, true)
			rng := rand.New(rand.NewSource(int64(sub)*8 + int64(mask)))
			// open[task] models the OUs in flight, innermost last.
			type ou struct {
				id    uint64
				ended bool
			}
			var open [2][]ou
			for hit := 0; hit < 40; hit++ {
				ti := rng.Intn(2)
				w := sim.Work{Instructions: float64(1 + rng.Intn(5000)), BytesTouched: float64(rng.Intn(1 << 16)),
					WorkingSetBytes: float64(rng.Intn(1 << 22)), AllocBytes: int64(rng.Intn(4096)),
					DiskWriteBytes: int64(rng.Intn(8192)), DiskOps: int64(rng.Intn(3)),
					NetRecvBytes: int64(rng.Intn(2048)), NetSendBytes: int64(rng.Intn(2048)),
					NetMessages: int64(rng.Intn(4))}
				ioac := [4]int64{rng.Int63n(1 << 20), rng.Int63n(1 << 20), rng.Int63n(64), rng.Int63n(64)}
				for _, s := range []*side{jit, ref} {
					task := s.tasks[ti]
					task.Charge(w)
					task.IOAC.ReadBytes += ioac[0]
					task.IOAC.WriteBytes += ioac[1]
					task.IOAC.ReadOps += ioac[2]
					task.IOAC.WriteOps += ioac[3]
				}
				// The marker the innermost OU expects next (BEGIN with
				// none in flight) is fired three times in four; otherwise
				// a random one, which nests or breaks the marker order.
				st := &open[ti]
				m, top := 0, ou{id: uint64(1 + rng.Intn(4))}
				if n := len(*st); n > 0 {
					top = (*st)[n-1]
					m = 1
					if top.ended {
						m = 2
					}
				}
				if rng.Intn(4) == 0 {
					m = rng.Intn(3)
				}
				args := []uint64{top.id}
				switch n := len(*st); {
				case m == 0:
					if n > 0 {
						nested++
						top.id = uint64(1 + rng.Intn(4))
						args[0] = top.id
					}
					*st = append(*st, ou{id: top.id})
				case m == 1 && n > 0 && !top.ended:
					(*st)[n-1].ended = true
				case m == 2 && n > 0 && top.ended:
					*st = (*st)[:n-1]
				default: // the Collector resets the task's in-flight OUs
					violations++
					*st = (*st)[:0]
				}
				if m == 2 { // FEATURES: up to and past full width
					width := rng.Intn(tscout.MaxFeatures + 1)
					if rng.Intn(3) == 0 {
						width = tscout.MaxFeatures + rng.Intn(2)*3
					}
					args = append(args, uint64(rng.Intn(1<<16)), uint64(width))
					for i := 0; i < width; i++ {
						args = append(args, rng.Uint64()>>rng.Intn(64))
					}
				}
				name := fmt.Sprintf("%s mask=%d hit %d (%s)", sub, mask, hit, jit.progs[m].Program().Name)
				r0, cost, err := jit.run[m](jit.tasks[ti], args)
				wr0, wcost, werr := ref.run[m](ref.tasks[ti], args)
				if r0 != wr0 || cost != wcost || fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("%s: compiled (R0 %d, cost %d, %v), interpreter (R0 %d, cost %d, %v)",
						name, r0, cost, err, wr0, wcost, werr)
				}
				for i, mp := range jit.maps {
					if ring, ok := mp.(*bpf.PerCPURing); ok {
						samples += ring.Stats().Pending
					}
					got, want := bpf.MapFingerprint(mp), bpf.MapFingerprint(ref.maps[i])
					if got != want {
						t.Fatalf("%s: map %s: compiled %s, interpreter %s", name, mp.Name(), got, want)
					}
				}
			}
			got, gotDropped := jit.k.Observe(nil)
			want, wantDropped := ref.k.Observe(nil)
			if gotDropped != 0 || wantDropped != 0 {
				t.Fatalf("%s mask=%d: the event streams dropped %d and %d events", sub, mask, gotDropped, wantDropped)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s mask=%d: event streams diverged:\ncompiled    %v\ninterpreter %v", sub, mask, got, want)
			}
			calls += len(got)
		}
	}
	if samples == 0 || nested == 0 || violations == 0 || calls == 0 {
		t.Fatalf("the stream missed a path: %d samples, %d nested BEGINs, %d violations, %d events",
			samples, nested, violations, calls)
	}
	t.Logf("%d samples, %d nested BEGINs, %d marker-order violations, %d events", samples, nested, violations, calls)
}
