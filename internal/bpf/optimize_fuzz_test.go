package bpf

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

// This file holds the differential fuzz target for the optimizer (the
// constructive analogue of FuzzVerifyThenRun). The oracle: for any program
// the verifier accepts, Optimize must produce a program that (a) still
// verifies, (b) is no longer than the input, and (c) is observationally
// identical — same R0, same impure helper-call trace, same perf-ring
// contents, and same end-state in every map — when both run against
// identical fresh kernels, tasks, and maps.

// tableFingerprint renders a table's entries in key order, each through
// format.
func tableFingerprint(t *u64Table, format string) string {
	var keys []uint64
	vals := map[uint64][]byte{}
	t.each(func(k uint64, v []byte) bool {
		keys = append(keys, k)
		vals[k] = v
		return true
	})
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, format, k, vals[k])
	}
	return b.String()
}

// mapFingerprint renders a map's end-state canonically so two variants can
// be compared byte-for-byte. Ring buffers fold in their drain contents and
// submit/drop accounting; hash and per-task maps sort their keys.
func mapFingerprint(m Map) string {
	switch mm := m.(type) {
	case *HashMap:
		return "hash:" + tableFingerprint(&mm.t, "%x=%x;")
	case *ArrayMap:
		return fmt.Sprintf("array:%x", mm.values)
	case *PerTaskMap:
		return "pertask:" + tableFingerprint(&mm.t, "%d=%x;")
	case *PerCPURing:
		// Per-CPU counters first (Drain moves them), then every ring's
		// contents in CPU order: routing, overwrites and payloads all show.
		st := mm.AppendCPUStats(nil)
		var all Batch
		for cpu := range st {
			mm.DrainBatch(cpu, &all, 0)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "ring:%+v:", st)
		for i := 0; i < all.Len(); i++ {
			fmt.Fprintf(&b, "%x ", all.Sample(i))
		}
		return b.String()
	default:
		return fmt.Sprintf("unknown:%s", m.Name())
	}
}

// optVariantResult is one program execution observed in full.
type optVariantResult struct {
	r0    uint64
	cost  int64
	err   error
	trace []HelperCall
	maps  []string
}

// runOptVariant runs insns against a fresh kernel, task, and map table so
// both sides of the differential comparison start from identical state.
func runOptVariant(tb testing.TB, name string, insns []Insn, seed int64) optVariantResult {
	return runExecVariant(tb, name, insns, seed, false)
}

// runExecVariant is runOptVariant with an execution-engine choice: compile
// selects the JIT.
func runExecVariant(tb testing.TB, name string, insns []Insn, seed int64, compile bool) optVariantResult {
	return runExecVariantOn(tb, sim.LargeHW, name, insns, seed, compile)
}

// runExecVariantOn is runExecVariant on a chosen hardware profile. A
// verified program always compiles, so a Compile error fails tb.
func runExecVariantOn(tb testing.TB, hw sim.HardwareProfile, name string, insns []Insn, seed int64, compile bool) optVariantResult {
	tb.Helper()
	p := &Program{Name: name, Insns: insns, Maps: newGenMaps()}
	lp, err := Load(p, fuzzMaxInsns)
	if err != nil {
		return optVariantResult{err: err}
	}
	if compile {
		if _, err := lp.Compile(); err != nil {
			tb.Fatalf("verified program does not compile: %v\n%s", err, p.Disassemble())
		}
	}
	lp.SetCallTrace(true)
	k := kernel.New(hw, seed, 0)
	task := k.NewTask("fuzz-opt")
	r0, cost, rerr := lp.Run(task, []uint64{1, 2, 3, 4})
	res := optVariantResult{r0: r0, cost: cost, err: rerr, trace: lp.CallTrace()}
	for _, m := range p.Maps {
		res.maps = append(res.maps, mapFingerprint(m))
	}
	return res
}

// FuzzOptimize feeds generated (and optionally mutated) programs through
// Optimize and cross-checks the original against the optimized output.
func FuzzOptimize(f *testing.F) {
	f.Add(int64(1), uint8(10), []byte{})
	f.Add(int64(8), uint8(9), []byte{0, 0, 0, 0})
	f.Add(int64(42), uint8(30), []byte{})
	f.Add(int64(99), uint8(36), []byte{2, 7, 255, 255})
	f.Add(int64(141), uint8(39), []byte{})
	// store→helper→shadowing store: map_update_elem reads its buffers, so
	// dead-store elimination must keep a store only the helper reads.
	// Pinned via raw mode, which the generator+mutator path cannot express
	// exactly.
	f.Add(int64(-1), uint8(0), encodeInsns(helperReadsStoreProgram().Insns))

	f.Fuzz(func(t *testing.T, seed int64, steps uint8, mut []byte) {
		var p *Program
		if seed < 0 {
			// Raw mode: mut is a wire-encoded program (encodeInsns),
			// letting corpus entries pin exact regression programs.
			insns := decodeInsns(mut)
			if len(insns) == 0 {
				return
			}
			p = &Program{Name: "fuzz/opt-raw", Insns: insns, Maps: newGenMaps()}
			if Verify(p, fuzzMaxInsns) != nil {
				return // reject side is FuzzVerify's job
			}
		} else {
			p = genProgram(seed, int(steps%40)+1)
			if len(mut) > 0 {
				mp := &Program{Name: "fuzz/opt-mut", Insns: mutateInsns(p.Insns, mut), Maps: newGenMaps()}
				if len(mp.Insns) == 0 || Verify(mp, fuzzMaxInsns) != nil {
					return // reject side is FuzzVerifyThenRun's job
				}
				p = mp
			}
		}

		opt, stats, err := Optimize(p, fuzzMaxInsns)
		if err != nil {
			t.Fatalf("optimize rejected a verified program: %v\n%s", err, p.Disassemble())
		}
		if stats.BeforeInsns != len(p.Insns) || stats.AfterInsns != len(opt.Insns) {
			t.Fatalf("stats counts %d/%d disagree with programs %d/%d",
				stats.BeforeInsns, stats.AfterInsns, len(p.Insns), len(opt.Insns))
		}
		if stats.AfterInsns > stats.BeforeInsns {
			t.Fatalf("optimizer grew the program: %+v", stats)
		}
		if err := Verify(opt, fuzzMaxInsns); err != nil {
			t.Fatalf("optimized program does not verify: %v\noriginal:\n%s\noptimized:\n%s",
				err, p.Disassemble(), opt.Disassemble())
		}

		orig := runOptVariant(t, "fuzz/opt-orig", p.Insns, seed)
		if orig.err != nil {
			t.Fatalf("verified original faulted: %v\n%s", orig.err, p.Disassemble())
		}
		after := runOptVariant(t, "fuzz/opt-new", opt.Insns, seed)
		if after.err != nil {
			t.Fatalf("optimized program faulted: %v\noriginal:\n%s\noptimized:\n%s",
				after.err, p.Disassemble(), opt.Disassemble())
		}

		if orig.r0 != after.r0 {
			t.Fatalf("R0 diverged: original %d, optimized %d\noriginal:\n%s\noptimized:\n%s",
				orig.r0, after.r0, p.Disassemble(), opt.Disassemble())
		}
		if after.cost > orig.cost {
			t.Fatalf("optimized program costs more (%d > %d):\noriginal:\n%s\noptimized:\n%s",
				after.cost, orig.cost, p.Disassemble(), opt.Disassemble())
		}
		if !reflect.DeepEqual(orig.trace, after.trace) {
			t.Fatalf("impure helper traces diverged:\noriginal %v\noptimized %v\noriginal:\n%s\noptimized:\n%s",
				orig.trace, after.trace, p.Disassemble(), opt.Disassemble())
		}
		for i := range orig.maps {
			if orig.maps[i] != after.maps[i] {
				t.Fatalf("map %d end-state diverged:\noriginal  %s\noptimized %s\noriginal:\n%s\noptimized:\n%s",
					i, orig.maps[i], after.maps[i], p.Disassemble(), opt.Disassemble())
			}
		}

		// Compiled mode: the JIT must agree bit-exactly with the
		// interpreter on both the original and the optimized program.
		assertCompiledAgreement(t, p, seed)
		assertCompiledAgreement(t, opt, seed)
	})
}
