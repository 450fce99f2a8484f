package tscout

import (
	"fmt"
	"testing"

	"tscout/internal/bpf"
	"tscout/internal/kernel"
	"tscout/internal/sim"
)

func callsHelper(lp *bpf.LoadedProgram, helper int64) bool {
	for _, in := range lp.Program().Insns {
		if in.Op == bpf.OpCall && in.Imm == helper {
			return true
		}
	}
	return false
}

// TestCodegenProbeSelection: Codegen compiles in exactly the probes the
// OU's resource set asks for (Fig. 3) — an unchecked resource must not
// appear as a helper call in the BEGIN/END programs at all, rather than be
// skipped at runtime.
func TestCodegenProbeSelection(t *testing.T) {
	probes := []struct {
		name    string
		helper  int64
		enabled func(ResourceSet) bool
	}{
		{"cpu/read_counter", bpf.HelperReadCounter, func(r ResourceSet) bool { return r.CPU }},
		{"disk/read_ioac", bpf.HelperReadIOAC, func(r ResourceSet) bool { return r.Disk }},
		{"net/read_sock", bpf.HelperReadSock, func(r ResourceSet) bool { return r.Network }},
	}
	for mask := 0; mask < 8; mask++ {
		res := ResourceSet{CPU: mask&1 != 0, Disk: mask&2 != 0, Network: mask&4 != 0}
		col, err := GenerateCollector(SubsystemExecutionEngine, res, CollectorConfig{NumCPUs: 1, PerCPUCapacity: 16})
		if err != nil {
			t.Fatalf("mask %+v: %v", res, err)
		}
		for _, pr := range probes {
			t.Run(fmt.Sprintf("mask=%d/%s", mask, pr.name), func(t *testing.T) {
				want := pr.enabled(res)
				for progName, lp := range map[string]*bpf.LoadedProgram{
					"begin": col.Begin, "end": col.End,
				} {
					if got := callsHelper(lp, pr.helper); got != want {
						t.Fatalf("%s program: helper compiled in = %v, resource enabled = %v", progName, got, want)
					}
				}
				// FEATURES reads the finished entry; it never probes.
				if callsHelper(col.Features, pr.helper) {
					t.Fatalf("FEATURES program calls probe helper %s", pr.name)
				}
			})
		}
		if !callsHelper(col.Features, bpf.HelperPerfOutput) {
			t.Fatalf("mask %d: FEATURES program never submits to the ring", mask)
		}
		for _, lp := range []*bpf.LoadedProgram{col.Begin, col.End} {
			if callsHelper(lp, bpf.HelperPerfOutput) {
				t.Fatalf("mask %d: only FEATURES may submit samples", mask)
			}
		}
	}
}

// TestCodegenRingPerSubsystem: every subsystem gets its own named ring so
// the Processor can shard its drain path (and tsctl can attribute drops).
func TestCodegenRingPerSubsystem(t *testing.T) {
	seen := make(map[*bpf.PerCPURing]SubsystemID)
	for _, sub := range AllSubsystems {
		col, err := GenerateCollector(sub, ResourceSet{CPU: true}, CollectorConfig{NumCPUs: 1, PerCPUCapacity: 16})
		if err != nil {
			t.Fatalf("%s: %v", sub, err)
		}
		want := "tscout/" + sub.String() + "/ring"
		if col.Ring.Name() != want {
			t.Fatalf("%s ring named %q, want %q", sub, col.Ring.Name(), want)
		}
		if prev, dup := seen[col.Ring]; dup {
			t.Fatalf("subsystems %s and %s share a ring", prev, sub)
		}
		seen[col.Ring] = sub
		if st := col.Ring.Stats(); st.Capacity != 16 {
			t.Fatalf("%s ring capacity %d, want 16", sub, st.Capacity)
		}
	}
}

// TestCollectorSampleWireLayout drains the raw ring bytes one marker cycle
// produces and checks the §4 wire contract directly: fixed maximum size,
// OU/PID/nFeatures header words, and feature words at the fixed offset
// with the unused tail zeroed.
func TestCollectorSampleWireLayout(t *testing.T) {
	ts, k, scan, _ := newDeployment(t, KernelContinuous)
	task := k.NewTask("worker")
	runOU(ts, task, scan, sim.Work{Instructions: 50000, AllocBytes: 640}, 12, 34)

	col := ts.CollectorFor(SubsystemExecutionEngine)
	var bufs bpf.Batch
	if n := col.Ring.DrainBatch(0, &bufs, 0); n != 1 {
		t.Fatalf("one marker cycle produced %d samples", n)
	}
	buf := bufs.Sample(0)
	if len(buf) != SampleMaxBytes {
		t.Fatalf("sample is %d bytes; Collectors always submit SampleMaxBytes = %d", len(buf), SampleMaxBytes)
	}
	word := func(i int) uint64 { return bpf.U64(buf[i*8:]) }
	if got := OUID(word(0)); got != testOUSeqScan {
		t.Fatalf("word 0 (OU) = %d, want %d", got, testOUSeqScan)
	}
	if got := int(word(1)); got != task.PID {
		t.Fatalf("word 1 (PID) = %d, want %d", got, task.PID)
	}
	if got := word(3); got != 2 {
		t.Fatalf("word 3 (nFeatures) = %d, want 2", got)
	}
	if got := int64(word(sampleHeaderWords + mwAlloc)); got != 640 {
		t.Fatalf("alloc_bytes metric word = %d, want 640", got)
	}
	if word(sampleFixedWords) != 12 || word(sampleFixedWords+1) != 34 {
		t.Fatalf("feature words = %d,%d, want 12,34", word(sampleFixedWords), word(sampleFixedWords+1))
	}
	for i := 2; i < MaxFeatures; i++ {
		if word(sampleFixedWords+i) != 0 {
			t.Fatalf("unused feature word %d is %d, want 0", i, word(sampleFixedWords+i))
		}
	}
}

// TestMarkerFeatureEncoding is the table-driven marker→Collector→Processor
// encoding contract: feature vectors of every width against the OU's
// declared width of 2, including the MaxFeatures state-machine reject.
func TestMarkerFeatureEncoding(t *testing.T) {
	cases := []struct {
		name      string
		feats     []uint64
		want      []float64 // nil: no point produced
		padded    int64
		truncated int64
		errors    int64
	}{
		{name: "empty-padded", feats: nil, want: []float64{0, 0}, padded: 1},
		{name: "short-padded", feats: []uint64{5}, want: []float64{5, 0}, padded: 1},
		{name: "exact", feats: []uint64{5, 6}, want: []float64{5, 6}},
		{name: "long-truncated", feats: []uint64{5, 6, 7, 8}, want: []float64{5, 6}, truncated: 1},
		{name: "max-width-truncated",
			feats:     []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
			want:      []float64{1, 2},
			truncated: 1},
		{name: "over-max-rejected",
			feats:  []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17},
			errors: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, k, scan, _ := newDeployment(t, KernelContinuous)
			task := k.NewTask("worker")
			runOU(ts, task, scan, sim.Work{Instructions: 10000}, tc.feats...)
			ts.Processor().Drain(DrainOptions{})

			col := ts.CollectorFor(SubsystemExecutionEngine)
			if got := col.ErrorCount(); got != tc.errors {
				t.Fatalf("state-machine errors = %d, want %d", got, tc.errors)
			}
			pts := sinkOf(ts).points()
			if tc.want == nil {
				if len(pts) != 0 {
					t.Fatalf("rejected sample still produced %d points", len(pts))
				}
				return
			}
			if len(pts) != 1 {
				t.Fatalf("got %d points, want 1", len(pts))
			}
			tp := pts[0]
			if len(tp.Features) != len(tc.want) {
				t.Fatalf("features %v, want %v", tp.Features, tc.want)
			}
			for i := range tc.want {
				if tp.Features[i] != tc.want[i] {
					t.Fatalf("features %v, want %v", tp.Features, tc.want)
				}
			}
			st := ts.Processor().Stats().Kernel[SubsystemExecutionEngine]
			if st.PaddedFeatures != tc.padded || st.TruncatedFeatures != tc.truncated {
				t.Fatalf("padded=%d truncated=%d, want %d/%d",
					st.PaddedFeatures, st.TruncatedFeatures, tc.padded, tc.truncated)
			}
		})
	}
}

// TestMarkerFusedVector: a FeaturesVector marker cycle flows through the
// kernel Collector as one FusedOUID sample and expands into one point per
// part, with metrics apportioned by the (default, equal-weight) splitter.
func TestMarkerFusedVector(t *testing.T) {
	k := kernel.New(sim.LargeHW, 7, 0)
	ts := New(k, Config{Mode: KernelContinuous, Seed: 11, ProcessorSink: &recordingBatchSink{}})
	scan := ts.MustRegisterOU(OUDef{
		ID: testOUSeqScan, Name: "seq_scan", Subsystem: SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_bytes"},
	}, ResourceSet{CPU: true})
	ts.MustRegisterOU(OUDef{
		ID: testOUFilter, Name: "filter", Subsystem: SubsystemExecutionEngine,
		Features: []string{"num_rows"},
	}, ResourceSet{CPU: true})
	if err := ts.Deploy(); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	ts.Sampler().SetAllRates(100)
	task := k.NewTask("worker")

	ts.BeginEvent(task, SubsystemExecutionEngine)
	scan.Begin(task)
	task.Charge(sim.Work{Instructions: 100000})
	scan.End(task)
	if err := scan.FeaturesVector(task, 128, []FusedPart{
		{OU: testOUSeqScan, Features: []uint64{40, 40}},
		{OU: testOUFilter, Features: []uint64{60}},
	}); err != nil {
		t.Fatalf("FeaturesVector: %v", err)
	}

	if n := ts.Processor().Drain(DrainOptions{}).Points; n != 2 {
		t.Fatalf("fused sample expanded to %d points, want 2", n)
	}
	pts := sinkOf(ts).points()
	if pts[0].OU != testOUSeqScan || pts[1].OU != testOUFilter {
		t.Fatalf("fused order: %d then %d", pts[0].OU, pts[1].OU)
	}
	if pts[0].Features[0] != 40 || pts[1].Features[0] != 60 {
		t.Fatalf("per-part features: %v / %v", pts[0].Features, pts[1].Features)
	}
	total := pts[0].Metrics.Instructions + pts[1].Metrics.Instructions
	if total == 0 {
		t.Fatalf("fused metrics vanished in the split")
	}
	half := total / 2
	for i, tp := range pts {
		got := tp.Metrics.Instructions
		if got < half-total/10 || got > half+total/10 {
			t.Fatalf("part %d got %d of %d instructions; default splitter is equal-weight", i, got, total)
		}
	}
	if got := ts.CollectorFor(SubsystemExecutionEngine).ErrorCount(); got != 0 {
		t.Fatalf("state-machine errors: %d", got)
	}
}

// TestCodegenOptimizeSweep runs every subsystem × resource mask through
// code generation with the optimizer on: all three programs must verify,
// the optimizer must remove a nonzero number of instructions from each
// (the up-front zero-fills guarantee shadowed stores exist), and the
// optimized output must be lint-clean — if the optimizer left behind
// something lint can see, it did not reach its fixpoint.
func TestCodegenOptimizeSweep(t *testing.T) {
	for _, sub := range AllSubsystems {
		for mask := 0; mask < 16; mask++ {
			res := ResourceSet{
				CPU: mask&1 != 0, Memory: mask&2 != 0,
				Disk: mask&4 != 0, Network: mask&8 != 0,
			}
			col, err := GenerateCollector(sub, res, CollectorConfig{NumCPUs: 1, PerCPUCapacity: 16, Optimize: true})
			if err != nil {
				t.Fatalf("%s mask %d: %v", sub, mask, err)
			}
			if !col.OptStats.Enabled {
				t.Fatalf("%s mask %d: OptStats.Enabled not set", sub, mask)
			}
			// FEATURES always shrinks: its header and metric stores shadow
			// the up-front zero-fill. BEGIN/END only have shadowed stores
			// when at least one kernel-level probe overwrites its zeros.
			if st := col.OptStats.Features; st.Saved() <= 0 || st.AfterInsns >= st.BeforeInsns {
				t.Errorf("%s mask %d: optimizer saved nothing in features: %+v", sub, mask, st)
			}
			if res.CPU || res.Disk || res.Network {
				for name, st := range map[string]bpf.OptStats{
					"begin": col.OptStats.Begin, "end": col.OptStats.End,
				} {
					if st.Saved() <= 0 {
						t.Errorf("%s mask %d: optimizer saved nothing in %s: %+v", sub, mask, name, st)
					}
				}
			}
			for name, lp := range map[string]*bpf.LoadedProgram{
				"begin": col.Begin, "end": col.End, "features": col.Features,
			} {
				fs, err := bpf.Lint(lp.Program(), 0)
				if err != nil {
					t.Fatalf("%s mask %d: lint %s: %v", sub, mask, name, err)
				}
				if len(fs) != 0 {
					t.Errorf("%s mask %d: optimized %s has lint findings: %v", sub, mask, name, fs)
				}
			}
		}
	}
}

// TestCodegenOptimizePreservesSamples runs one full marker cycle through
// optimized and unoptimized Collectors and compares the raw sample bytes.
func TestCodegenOptimizePreservesSamples(t *testing.T) {
	run := func(opt bool) []byte {
		col, err := GenerateCollector(SubsystemExecutionEngine,
			ResourceSet{CPU: true, Disk: true, Network: true},
			CollectorConfig{NumCPUs: 1, PerCPUCapacity: 16, Optimize: opt})
		if err != nil {
			t.Fatal(err)
		}
		k := kernel.New(sim.LargeHW, 7, 0)
		task := k.NewTask("cmp")
		task.Perf().Enable(kernel.AllCounters...)
		begin := k.Tracepoint("cmp/begin")
		end := k.Tracepoint("cmp/end")
		feat := k.Tracepoint("cmp/features")
		col.Attach(begin, end, feat)
		task.HitTracepoint(begin, []uint64{42})
		task.ChargeUserNS(1000)
		task.HitTracepoint(end, []uint64{42})
		task.HitTracepoint(feat, []uint64{42, 512, 2, 7, 9})
		var samples bpf.Batch
		if n := col.Ring.DrainBatch(0, &samples, 0); n != 1 {
			t.Fatalf("opt=%v: %d samples, want 1", opt, n)
		}
		if n := col.ErrorCount(); n != 0 {
			t.Fatalf("opt=%v: %d collector errors", opt, n)
		}
		return samples.Sample(0)
	}
	plain, optimized := run(false), run(true)
	if len(plain) != len(optimized) {
		t.Fatalf("sample sizes diverge: %d vs %d", len(plain), len(optimized))
	}
	// The elapsed metric legitimately differs: it measures wall time across
	// the BEGIN program itself, and the optimized BEGIN costs fewer virtual
	// ns — the collector observing its own reduced overhead. Every other
	// byte must match exactly.
	elapsedOff := (sampleHeaderWords + mwElapsed) * 8
	for i := range plain {
		if i >= elapsedOff && i < elapsedOff+8 {
			continue
		}
		if plain[i] != optimized[i] {
			t.Fatalf("sample byte %d diverges: %#x vs %#x\nplain %x\noptim %x",
				i, plain[i], optimized[i], plain, optimized)
		}
	}
	pe := bpf.U64(plain[elapsedOff:])
	oe := bpf.U64(optimized[elapsedOff:])
	if oe > pe {
		t.Fatalf("optimized collector reports more elapsed overhead: %d > %d", oe, pe)
	}
}
