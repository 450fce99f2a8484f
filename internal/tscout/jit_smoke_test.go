package tscout

import (
	"fmt"
	"strings"
	"testing"

	"tscout/internal/bpf"
	"tscout/internal/kernel"
	"tscout/internal/sim"
)

// This file is the JIT smoke suite: every Collector
// program the codegen can emit must compile (generated programs are
// loop-free straight-line/forward-branch code, so a decline is a JIT
// regression, not an expected fallback), and a deterministic marker
// workload must produce byte-identical ring contents, error-slot counts,
// and ring accounting on the compiled and interpreted engines.
// jit_bench_test.go reports the speed side on the same loaded programs.

// TestJITSmokeAllCollectorPrograms compiles all 4 subsystems × 16 resource
// masks × 3 marker programs — 192 programs — through the production path
// (optimizer on) and again with the optimizer off, requiring zero declines.
func TestJITSmokeAllCollectorPrograms(t *testing.T) {
	for _, optimize := range []bool{true, false} {
		compiled := 0
		for _, sub := range AllSubsystems {
			for mask := 0; mask < 16; mask++ {
				res := ResourceSet{
					CPU: mask&1 != 0, Memory: mask&2 != 0,
					Disk: mask&4 != 0, Network: mask&8 != 0,
				}
				col, err := GenerateCollector(sub, res, CollectorConfig{
					NumCPUs: 1, PerCPUCapacity: 16,
					Optimize: optimize, Compile: true,
				})
				if err != nil {
					t.Fatalf("%s mask=%d optimize=%v: %v", sub, mask, optimize, err)
				}
				js := col.JITStats()
				for name, ps := range map[string]bpf.ProgramJITStats{
					"begin": js.Begin, "end": js.End, "features": js.Features,
				} {
					if !ps.Compiled {
						t.Fatalf("%s mask=%d optimize=%v: %s program declined: %q",
							sub, mask, optimize, name, ps.DeclineReason)
					}
					compiled++
				}
			}
		}
		if compiled != 4*16*3 {
			t.Fatalf("optimize=%v: compiled %d programs, want %d", optimize, compiled, 4*16*3)
		}
	}
}

// jitSmokeObservation drives a fixed marker workload — balanced OU cycles,
// nested recursion, and a marker-order violation — against a fresh
// deployment and renders everything the Collectors produced: raw ring
// bytes, every error slot, orphan counts, and ring accounting.
func jitSmokeObservation(t *testing.T, compile bool) string {
	t.Helper()
	k := kernel.New(sim.LargeHW, 7, 0)
	ts := New(k, Config{Seed: 11, OptimizeCollectors: true, CompileCollectors: compile})
	scan := ts.MustRegisterOU(OUDef{
		ID: testOUSeqScan, Name: "seq_scan", Subsystem: SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_bytes"},
	}, ResourceSet{CPU: true, Memory: true, Disk: true})
	wal := ts.MustRegisterOU(OUDef{
		ID: testOUWAL, Name: "log_serialize", Subsystem: SubsystemLogSerializer,
		Features: []string{"num_records", "bytes"},
	}, ResourceSet{CPU: true, Disk: true})
	if err := ts.Deploy(); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	ts.Sampler().SetAllRates(100)

	task := k.NewTask("smoke")
	for i := 0; i < 8; i++ {
		runOU(ts, task, scan, sim.Work{Instructions: float64(1000 * (i + 1)), AllocBytes: int64(64 * i)},
			uint64(i), uint64(2*i))
		runOU(ts, task, wal, sim.Work{Instructions: 500 + float64(i)}, uint64(i))
	}
	// Recursion: an OU re-entering before its END (paper §5.2) keys a
	// second entry on (pid, depth+1); both must pop cleanly.
	ts.BeginEvent(task, SubsystemExecutionEngine)
	scan.Begin(task)
	task.Charge(sim.Work{Instructions: 300})
	ts.BeginEvent(task, SubsystemExecutionEngine)
	scan.Begin(task)
	task.Charge(sim.Work{Instructions: 100})
	scan.End(task)
	scan.Features(task, 0, 1)
	scan.End(task)
	scan.Features(task, 0, 2)
	// Marker-order violation: an END with no OU in flight must land in an
	// error slot, not a sample, on both engines.
	wal.End(task)

	var b strings.Builder
	for _, sub := range AllSubsystems {
		col := ts.CollectorFor(sub)
		if col == nil {
			continue
		}
		if faults := col.RuntimeFaults(); faults != 0 {
			t.Fatalf("%s: %d runtime faults (compile=%v)", sub, faults, compile)
		}
		fmt.Fprintf(&b, "[%s]\n", sub)
		var batch bpf.Batch
		for cpu := 0; cpu < col.Ring.NumCPUs(); cpu++ {
			col.Ring.DrainBatch(cpu, &batch, 0)
		}
		for i := 0; i < batch.Len(); i++ {
			fmt.Fprintf(&b, "sample %x\n", batch.Sample(i))
		}
		for slot := uint64(0); slot < numErrorSlots; slot++ {
			fmt.Fprintf(&b, "err[%d]=%d\n", slot, col.errorSlot(slot))
		}
		rs := col.Ring.Stats()
		fmt.Fprintf(&b, "submitted=%d dropped=%d orphans=%+v\n", rs.Submitted, rs.Dropped, col.Orphans())
	}

	if compile {
		// The compiled run must actually have dispatched natively for the
		// two active subsystems' programs.
		for _, sub := range []SubsystemID{SubsystemExecutionEngine, SubsystemLogSerializer} {
			js := ts.CollectorFor(sub).JITStats()
			for name, ps := range map[string]bpf.ProgramJITStats{
				"begin": js.Begin, "end": js.End, "features": js.Features,
			} {
				if !ps.Compiled || ps.CompiledRuns == 0 {
					t.Fatalf("%s %s: compiled=%v runs=%d — smoke workload never ran natively",
						sub, name, ps.Compiled, ps.CompiledRuns)
				}
			}
		}
	}
	return b.String()
}

// TestJITSmokeDifferential: the compiled and interpreted engines must be
// observationally identical on the smoke workload, down to the raw sample
// bytes in the rings.
func TestJITSmokeDifferential(t *testing.T) {
	interp := jitSmokeObservation(t, false)
	compiled := jitSmokeObservation(t, true)
	if interp != compiled {
		t.Fatalf("engines diverged on the smoke workload:\n--- interpreted ---\n%s\n--- compiled ---\n%s",
			interp, compiled)
	}
	// The workload must have exercised the interesting paths: samples
	// submitted, and the deliberate violation counted.
	if !strings.Contains(interp, "sample ") {
		t.Fatalf("smoke workload produced no samples:\n%s", interp)
	}
}

// loadMarkerPrograms loads a fresh set of the ExecutionEngine marker
// programs with every resource probe enabled — the largest programs
// codegen emits — on their own maps, kernel and task, so two sets never
// share state. With compile set, a declined program is fatal.
func loadMarkerPrograms(tb testing.TB, compile bool) (begin, end, features *bpf.LoadedProgram, task *kernel.Task) {
	tb.Helper()
	progs := CollectorPrograms(SubsystemExecutionEngine,
		ResourceSet{CPU: true, Memory: true, Disk: true, Network: true})
	k := kernel.New(sim.LargeHW, 1, 0)
	task = k.NewTask("bench")
	loaded := map[string]*bpf.LoadedProgram{}
	for _, np := range progs {
		lp, err := bpf.Load(np.Prog, 0)
		if err != nil {
			tb.Fatalf("%s: %v", np.Name, err)
		}
		if compile {
			if info := lp.Compile(); !info.Compiled {
				tb.Fatalf("%s declined compilation: %s", np.Name, info.Reason)
			}
		}
		loaded[np.Name] = lp
	}
	return loaded["begin"], loaded["end"], loaded["features"], task
}

var (
	markerArgs = []uint64{1}
	// A full-width feature vector (OU id + 10 features): the features
	// program's serialization loop dominates, which is the path the ≥5×
	// criterion of BenchmarkCollectorInterpVsCompiled measures.
	fullFeatureArgs = []uint64{1, 4096, 10, 11, 22, 33, 44, 55, 66, 77, 88, 99, 110}
)

// TestJITSmokeMarkerCycle runs the cycle the interpreter-vs-JIT benchmark
// times — BEGIN → END → FEATURES on directly loaded programs, outside any
// deployment — once per engine: every program must return the same R0 and
// charge the same virtual cost on both.
func TestJITSmokeMarkerCycle(t *testing.T) {
	cycle := func(compile bool) (out [3][2]int64) {
		begin, end, features, task := loadMarkerPrograms(t, compile)
		for i, r := range []struct {
			lp   *bpf.LoadedProgram
			args []uint64
		}{{begin, markerArgs}, {end, markerArgs}, {features, fullFeatureArgs}} {
			r0, cost, err := r.lp.Run(task, r.args)
			if err != nil {
				t.Fatalf("program %d (compile=%v): %v", i, compile, err)
			}
			out[i] = [2]int64{int64(r0), cost}
		}
		return out
	}
	if interp, compiled := cycle(false), cycle(true); interp != compiled {
		t.Fatalf("(R0, cost) per program diverged: interpreted %v, compiled %v", interp, compiled)
	}
}
