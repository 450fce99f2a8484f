package tscout

import (
	"math"
	"testing"
	"testing/quick"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

const (
	testOUSeqScan OUID = 1
	testOUFilter  OUID = 2
	testOUOutput  OUID = 3
	testOUWAL     OUID = 10
)

func newDeployment(t *testing.T, mode Mode) (*TScout, *kernel.Kernel, *Marker, *Marker) {
	t.Helper()
	k := kernel.New(sim.LargeHW, 7, 0)
	ts := New(k, Config{Mode: mode, Seed: 11, ProcessorSink: &recordingBatchSink{}})
	scan := ts.MustRegisterOU(OUDef{
		ID: testOUSeqScan, Name: "seq_scan", Subsystem: SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_bytes"},
	}, ResourceSet{CPU: true, Disk: true})
	wal := ts.MustRegisterOU(OUDef{
		ID: testOUWAL, Name: "log_serialize", Subsystem: SubsystemLogSerializer,
		Features: []string{"num_records", "bytes"},
	}, ResourceSet{CPU: true, Disk: true})
	if err := ts.Deploy(); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	ts.Sampler().SetAllRates(100)
	return ts, k, scan, wal
}

// runOU performs one full marker cycle around a charge of work.
func runOU(ts *TScout, task *kernel.Task, m *Marker, w sim.Work, feats ...uint64) {
	ts.BeginEvent(task, m.def.Subsystem)
	m.Begin(task)
	task.Charge(w)
	m.End(task)
	m.Features(task, w.AllocBytes, feats...)
}

func TestCodegenProgramsVerify(t *testing.T) {
	// Every resource-set combination must produce verifiable programs.
	for mask := 0; mask < 8; mask++ {
		res := ResourceSet{CPU: mask&1 != 0, Disk: mask&2 != 0, Network: mask&4 != 0}
		col, err := GenerateCollector(SubsystemExecutionEngine, res, CollectorConfig{NumCPUs: 1, PerCPUCapacity: 128})
		if err != nil {
			t.Fatalf("resource set %+v: %v", res, err)
		}
		if col.Begin == nil || col.End == nil || col.Features == nil {
			t.Fatalf("missing programs")
		}
	}
}

func TestCodegenProgramSizesArePaperScale(t *testing.T) {
	col, err := GenerateCollector(SubsystemExecutionEngine,
		ResourceSet{CPU: true, Disk: true, Network: true}, CollectorConfig{NumCPUs: 1, PerCPUCapacity: 128})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]int{
		"begin":    len(col.Begin.Program().Insns),
		"end":      len(col.End.Program().Insns),
		"features": len(col.Features.Program().Insns),
	} {
		// Paper §5.1: compiled Collectors are hundreds of instructions.
		if p < 20 || p > 1000 {
			t.Fatalf("%s program has %d instructions; expected paper-scale 20..1000", name, p)
		}
	}
}

func TestKernelModeEndToEnd(t *testing.T) {
	ts, k, scan, _ := newDeployment(t, KernelContinuous)
	task := k.NewTask("worker")

	w := sim.Work{Instructions: 200000, BytesTouched: 1 << 16, WorkingSetBytes: 1 << 20, AllocBytes: 4096}
	runOU(ts, task, scan, w, 1000, 64)

	if _, _, n := drainDelta(ts.Processor(), DrainOptions{}); n != 1 {
		t.Fatalf("expected 1 training point, got %d", n)
	}
	pts := sinkOf(ts).points()
	tp := pts[0]
	if tp.OU != testOUSeqScan || tp.OUName != "seq_scan" || tp.Subsystem != SubsystemExecutionEngine {
		t.Fatalf("identity: %+v", tp)
	}
	if len(tp.Features) != 2 || tp.Features[0] != 1000 || tp.Features[1] != 64 {
		t.Fatalf("features: %v", tp.Features)
	}
	if tp.Metrics.ElapsedNS <= 0 {
		t.Fatalf("elapsed must be positive: %+v", tp.Metrics)
	}
	if tp.Metrics.Instructions == 0 || tp.Metrics.Cycles == 0 {
		t.Fatalf("CPU probe metrics missing: %+v", tp.Metrics)
	}
	// Instructions should be near the charged work (normalization noise
	// disabled, multiplexing corrected by the generated code).
	if got := float64(tp.Metrics.Instructions); math.Abs(got-200000) > 12000 {
		t.Fatalf("instructions: got %v want ~200000", got)
	}
	if tp.Metrics.AllocBytes != 4096 {
		t.Fatalf("memory probe (user-level) value: %d", tp.Metrics.AllocBytes)
	}
	if col := ts.CollectorFor(SubsystemExecutionEngine); col.ErrorCount() != 0 {
		t.Fatalf("state machine errors: %d", col.ErrorCount())
	}
}

func TestKernelModeMetricsIsolatedBetweenOUs(t *testing.T) {
	ts, k, scan, wal := newDeployment(t, KernelContinuous)
	task := k.NewTask("worker")

	runOU(ts, task, scan, sim.Work{Instructions: 50000, BytesTouched: 4096})
	runOU(ts, task, wal, sim.Work{Instructions: 10000, BytesTouched: 1024, DiskWriteBytes: 8192, DiskOps: 1}, 5, 8192)
	ts.Processor().Drain(DrainOptions{})

	pts := sinkOf(ts).points()
	if len(pts) != 2 {
		t.Fatalf("points: %d", len(pts))
	}
	var scanPt, walPt *TrainingPoint
	for i := range pts {
		switch pts[i].OU {
		case testOUSeqScan:
			scanPt = &pts[i]
		case testOUWAL:
			walPt = &pts[i]
		}
	}
	if scanPt == nil || walPt == nil {
		t.Fatalf("missing points: %+v", pts)
	}
	// The WAL OU ran second; its counters must reflect only its own work.
	if got := float64(walPt.Metrics.Instructions); math.Abs(got-10000) > 2000 {
		t.Fatalf("WAL instructions: got %v want ~10000 (delta isolation)", got)
	}
	if walPt.Metrics.DiskWriteBytes != 8192 {
		t.Fatalf("WAL disk bytes: %d", walPt.Metrics.DiskWriteBytes)
	}
	if scanPt.Metrics.DiskWriteBytes != 0 {
		t.Fatalf("scan must see no disk writes: %d", scanPt.Metrics.DiskWriteBytes)
	}
}

func TestRecursiveOUNesting(t *testing.T) {
	// Paper §5.2: an operator invoking itself hits BEGIN twice before END.
	ts, k, scan, _ := newDeployment(t, KernelContinuous)
	task := k.NewTask("worker")
	ts.BeginEvent(task, SubsystemExecutionEngine)

	scan.Begin(task) // outer
	task.Charge(sim.Work{Instructions: 30000, BytesTouched: 4096})
	scan.Begin(task) // inner (recursive)
	task.Charge(sim.Work{Instructions: 7000, BytesTouched: 512})
	scan.End(task)
	scan.Features(task, 0, 1, 1)
	task.Charge(sim.Work{Instructions: 20000, BytesTouched: 2048})
	scan.End(task)
	scan.Features(task, 0, 2, 2)

	ts.Processor().Drain(DrainOptions{})
	pts := sinkOf(ts).points()
	if len(pts) != 2 {
		t.Fatalf("recursion must yield 2 points, got %d", len(pts))
	}
	inner, outer := pts[0], pts[1]
	if inner.Features[0] != 1 || outer.Features[0] != 2 {
		t.Fatalf("LIFO order: inner %v outer %v", inner.Features, outer.Features)
	}
	if got := float64(inner.Metrics.Instructions); math.Abs(got-7000) > 1500 {
		t.Fatalf("inner instructions: %v want ~7000", got)
	}
	// Outer sees its own plus the inner's (it was still "begun").
	if outer.Metrics.Instructions <= inner.Metrics.Instructions {
		t.Fatalf("outer must include nested work: %v vs %v",
			outer.Metrics.Instructions, inner.Metrics.Instructions)
	}
	if ts.CollectorFor(SubsystemExecutionEngine).ErrorCount() != 0 {
		t.Fatalf("no state errors expected")
	}
}

func TestMarkerStateMachineViolations(t *testing.T) {
	// Paper §5.1: out-of-order markers reset collection and log an error.
	ts, k, scan, _ := newDeployment(t, KernelContinuous)
	task := k.NewTask("worker")
	ts.BeginEvent(task, SubsystemExecutionEngine)

	// END without BEGIN.
	scan.End(task)
	col := ts.CollectorFor(SubsystemExecutionEngine)
	if col.ErrorCount() != 1 {
		t.Fatalf("END-without-BEGIN must count an error: %d", col.ErrorCount())
	}
	// FEATURES without anything.
	scan.Features(task, 0, 1)
	if col.ErrorCount() != 2 {
		t.Fatalf("FEATURES-without-BEGIN: %d", col.ErrorCount())
	}
	// Double END.
	scan.Begin(task)
	scan.End(task)
	scan.End(task)
	if col.ErrorCount() != 3 {
		t.Fatalf("double END: %d", col.ErrorCount())
	}
	// After the reset, a clean cycle works again.
	runOU(ts, task, scan, sim.Work{Instructions: 1000, BytesTouched: 64}, 9, 9)
	ts.Processor().Drain(DrainOptions{})
	if got := len(sinkOf(ts).points()); got != 1 {
		t.Fatalf("recovery after reset: %d points", got)
	}
}

func TestSamplingDisabledIsNearlyFree(t *testing.T) {
	ts, k, scan, _ := newDeployment(t, KernelContinuous)
	ts.Sampler().SetAllRates(0)
	task := k.NewTask("worker")

	ts.BeginEvent(task, SubsystemExecutionEngine)
	before := task.Now()
	scan.Begin(task)
	scan.End(task)
	scan.Features(task, 0, 1)
	overhead := task.Now() - before
	if overhead > 100 {
		t.Fatalf("unsampled markers must cost almost nothing: %dns", overhead)
	}
	ts.Processor().Drain(DrainOptions{})
	if len(sinkOf(ts).points()) != 0 {
		t.Fatalf("no data at 0%% sampling")
	}
}

func TestUserModesEndToEnd(t *testing.T) {
	for _, mode := range []Mode{UserToggle, UserContinuous} {
		ts, k, scan, _ := newDeployment(t, mode)
		task := k.NewTask("worker")
		runOU(ts, task, scan, sim.Work{Instructions: 80000, BytesTouched: 8192, AllocBytes: 256}, 500, 32)
		ts.Processor().Drain(DrainOptions{})
		pts := sinkOf(ts).points()
		if len(pts) != 1 {
			t.Fatalf("%v: points %d", mode, len(pts))
		}
		tp := pts[0]
		if got := float64(tp.Metrics.Instructions); math.Abs(got-80000) > 9000 {
			t.Fatalf("%v instructions: %v want ~80000", mode, got)
		}
		if tp.Metrics.AllocBytes != 256 {
			t.Fatalf("%v alloc: %d", mode, tp.Metrics.AllocBytes)
		}
		if tp.Features[0] != 500 {
			t.Fatalf("%v features: %v", mode, tp.Features)
		}
	}
}

func TestModeCostOrdering(t *testing.T) {
	// Per sampled OU: User-Toggle (3 syscalls) must cost more
	// instrumentation time than Kernel-Continuous (tracepoint traps).
	cost := func(mode Mode) int64 {
		ts, k, scan, _ := newDeployment(t, mode)
		task := k.NewTask("worker")
		for i := 0; i < 50; i++ {
			runOU(ts, task, scan, sim.Work{Instructions: 1000, BytesTouched: 64}, 1, 1)
		}
		return task.KernelInstrumentationNS + task.UserInstrumentationNS
	}
	kc, ut, uc := cost(KernelContinuous), cost(UserToggle), cost(UserContinuous)
	if ut <= kc {
		t.Fatalf("User-Toggle must be the most expensive per OU: toggle=%d kernel=%d", ut, kc)
	}
	if ut <= uc {
		t.Fatalf("User-Toggle must cost more than User-Continuous: %d vs %d", ut, uc)
	}
}

func TestUserContinuousContextSwitchPenalty(t *testing.T) {
	// Even at 0% sampling, continuous counters make context switches
	// dearer (paper §6.2).
	k := kernel.New(sim.LargeHW, 1, 0)
	ts := New(k, Config{Mode: UserContinuous})
	ts.MustRegisterOU(OUDef{ID: 1, Name: "x", Subsystem: SubsystemExecutionEngine}, ResourceSet{CPU: true})
	if err := ts.Deploy(); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask("worker")
	ts.BeginEvent(task, SubsystemExecutionEngine) // first contact enables counters
	a := task.ContextSwitch()

	k2 := kernel.New(sim.LargeHW, 1, 0)
	task2 := k2.NewTask("worker")
	b := task2.ContextSwitch()
	if a <= b {
		t.Fatalf("continuous mode must surcharge context switches: %d vs %d", a, b)
	}
}

func TestFusedFeatureVector(t *testing.T) {
	// Paper §5.2 / Fig. 4: one metrics set, features for three OUs.
	k2 := kernel.New(sim.LargeHW, 3, 0)
	ts2 := New(k2, Config{Seed: 5, ProcessorSink: &recordingBatchSink{}})
	pipeline := ts2.MustRegisterOU(OUDef{ID: 100, Name: "fused_pipeline",
		Subsystem: SubsystemExecutionEngine, Features: []string{"n"}},
		ResourceSet{CPU: true})
	idxLookup := ts2.MustRegisterOU(OUDef{ID: 101, Name: "idx_lookup",
		Subsystem: SubsystemExecutionEngine, Features: []string{"n"}},
		ResourceSet{CPU: true})
	filter := ts2.MustRegisterOU(OUDef{ID: 102, Name: "filter",
		Subsystem: SubsystemExecutionEngine, Features: []string{"n"}},
		ResourceSet{CPU: true})
	output := ts2.MustRegisterOU(OUDef{ID: 103, Name: "output",
		Subsystem: SubsystemExecutionEngine, Features: []string{"n"}},
		ResourceSet{CPU: true})
	_, _, _ = idxLookup, filter, output
	if err := ts2.Deploy(); err != nil {
		t.Fatal(err)
	}
	ts2.Sampler().SetAllRates(100)
	// Split proportional to the feature value (stands in for the offline
	// model's prediction).
	ts2.Processor().SetSplitter(func(ou OUID, f []float64) float64 { return f[0] })

	task := k2.NewTask("worker")
	ts2.BeginEvent(task, SubsystemExecutionEngine)
	pipeline.Begin(task)
	task.Charge(sim.Work{Instructions: 90000, BytesTouched: 8192})
	pipeline.End(task)
	err := pipeline.FeaturesVector(task, 0, []FusedPart{
		{OU: 101, Features: []uint64{100}},
		{OU: 102, Features: []uint64{200}},
		{OU: 103, Features: []uint64{600}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2.Processor().Drain(DrainOptions{})
	pts := sinkOf(ts2).points()
	if len(pts) != 3 {
		t.Fatalf("fused sample must expand to 3 points: %d", len(pts))
	}
	var total uint64
	for _, tp := range pts {
		total += tp.Metrics.Instructions
	}
	if math.Abs(float64(total)-90000) > 9000 {
		t.Fatalf("split metrics must sum to the whole: %d", total)
	}
	// The 600-weight OU gets ~6x the 100-weight OU's share.
	ratio := float64(pts[2].Metrics.Instructions) / float64(pts[0].Metrics.Instructions+1)
	if ratio < 4 || ratio > 8 {
		t.Fatalf("proportional split: ratio %v want ~6", ratio)
	}
}

func TestSamplerRateProperty(t *testing.T) {
	f := func(rateRaw uint8, seed int64) bool {
		rate := int(rateRaw % 101)
		s := NewSampler(seed)
		s.SetRate(SubsystemExecutionEngine, rate)
		off := 0
		hits := 0
		for i := 0; i < SamplingBits; i++ {
			if s.ShouldSample(SubsystemExecutionEngine, &off) {
				hits++
			}
		}
		return hits == rate
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerClamps(t *testing.T) {
	s := NewSampler(1)
	s.SetRate(SubsystemNetworking, -5)
	if s.Rate(SubsystemNetworking) != 0 {
		t.Fatalf("negative rate must clamp to 0")
	}
	s.SetRate(SubsystemNetworking, 150)
	if s.Rate(SubsystemNetworking) != 100 {
		t.Fatalf("rate must clamp to 100")
	}
}

func TestSamplerDeBursting(t *testing.T) {
	// At 20%, the set bits must not be one contiguous run (the shuffle is
	// the §5.3 anti-burstiness mechanism).
	s := NewSampler(42)
	s.SetRate(SubsystemExecutionEngine, 20)
	off := 0
	var pattern []bool
	for i := 0; i < SamplingBits; i++ {
		pattern = append(pattern, s.ShouldSample(SubsystemExecutionEngine, &off))
	}
	longest, cur := 0, 0
	for _, b := range pattern {
		if b {
			cur++
			if cur > longest {
				longest = cur
			}
		} else {
			cur = 0
		}
	}
	if longest >= 15 {
		t.Fatalf("sampling bits too bursty: run of %d", longest)
	}
}

func TestAdjustableRatesPerSubsystem(t *testing.T) {
	ts, k, scan, wal := newDeployment(t, KernelContinuous)
	ts.Sampler().SetRate(SubsystemExecutionEngine, 0)
	ts.Sampler().SetRate(SubsystemLogSerializer, 100)
	task := k.NewTask("worker")

	runOU(ts, task, scan, sim.Work{Instructions: 1000, BytesTouched: 64}, 1, 1)
	runOU(ts, task, wal, sim.Work{Instructions: 1000, BytesTouched: 64}, 1, 1)
	ts.Processor().Drain(DrainOptions{})
	pts := sinkOf(ts).points()
	if len(pts) != 1 || pts[0].Subsystem != SubsystemLogSerializer {
		t.Fatalf("per-subsystem sampling: %+v", pts)
	}
	if ts.Sampler().Rate(SubsystemLogSerializer) == 0 || ts.Sampler().Rate(SubsystemExecutionEngine) != 0 {
		t.Fatalf("collection flags wrong")
	}
}

func TestProcessorFeedbackLowersRate(t *testing.T) {
	k := kernel.New(sim.LargeHW, 1, 0)
	ts := New(k, Config{RingCapacity: 8, Seed: 3})
	m := ts.MustRegisterOU(OUDef{ID: 1, Name: "x", Subsystem: SubsystemExecutionEngine,
		Features: []string{"n"}}, ResourceSet{CPU: true})
	if err := ts.Deploy(); err != nil {
		t.Fatal(err)
	}
	ts.Sampler().SetAllRates(100)
	task := k.NewTask("worker")
	// Overflow the tiny ring before the Processor ever polls.
	for i := 0; i < 100; i++ {
		runOU(ts, task, m, sim.Work{Instructions: 100, BytesTouched: 64}, uint64(i))
	}
	ts.Processor().Drain(DrainOptions{})
	if got := ts.Sampler().Rate(SubsystemExecutionEngine); got >= 100 {
		t.Fatalf("feedback must lower the sampling rate: still %d%%", got)
	}
	if ts.CollectorFor(SubsystemExecutionEngine).Ring.Stats().Dropped == 0 {
		t.Fatalf("test premise: ring must have dropped")
	}
}

func TestUndeployRedeploy(t *testing.T) {
	// Dynamic feature selection (§5.4): unload, modify, reload without
	// restarting the DBMS.
	ts, k, scan, _ := newDeployment(t, KernelContinuous)
	task := k.NewTask("worker")
	runOU(ts, task, scan, sim.Work{Instructions: 1000, BytesTouched: 64}, 1, 1)
	// Drain before unloading: detaching a Collector frees its kernel-side
	// maps, so unfetched samples are gone (as with real BPF unload).
	ts.Processor().Drain(DrainOptions{})
	ts.Undeploy()
	if ts.deployed {
		t.Fatalf("undeploy must clear deployment")
	}
	// Markers are NOPs while undeployed.
	runOU(ts, task, scan, sim.Work{Instructions: 1000, BytesTouched: 64}, 2, 2)
	if err := ts.Deploy(); err != nil {
		t.Fatal(err)
	}
	runOU(ts, task, scan, sim.Work{Instructions: 1000, BytesTouched: 64}, 3, 3)
	ts.Processor().Drain(DrainOptions{})
	pts := sinkOf(ts).points()
	// Point 1 (drained pre-undeploy) and point 3; point 2 was a NOP.
	if len(pts) != 2 {
		t.Fatalf("points across redeploy: %d", len(pts))
	}
	if pts[0].Features[0] != 1 || pts[1].Features[0] != 3 {
		t.Fatalf("wrong points survived: %+v", pts)
	}
}

func TestRegisterOUValidation(t *testing.T) {
	k := kernel.New(sim.LargeHW, 1, 0)
	ts := New(k, Config{})
	if _, err := ts.RegisterOU(OUDef{ID: 1, Subsystem: NumSubsystems}, ResourceSet{}); err == nil {
		t.Fatalf("bad subsystem must fail")
	}
	feats := make([]string, MaxFeatures+1)
	if _, err := ts.RegisterOU(OUDef{ID: 1, Features: feats}, ResourceSet{}); err == nil {
		t.Fatalf("too many features must fail")
	}
	if _, err := ts.RegisterOU(OUDef{ID: 1, Name: "a"}, ResourceSet{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.RegisterOU(OUDef{ID: 1, Name: "b"}, ResourceSet{}); err == nil {
		t.Fatalf("duplicate id must fail")
	}
	if err := ts.Deploy(); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.RegisterOU(OUDef{ID: 2, Name: "c"}, ResourceSet{}); err == nil {
		t.Fatalf("register after deploy must fail")
	}
	if err := ts.Deploy(); err == nil {
		t.Fatalf("double deploy must fail")
	}
}

func TestSampleEncodeDecodeRoundTrip(t *testing.T) {
	f := func(ou uint16, pid uint16, elapsed uint32, nf uint8) bool {
		n := int(nf % (MaxFeatures + 1))
		feats := make([]uint64, n)
		for i := range feats {
			feats[i] = uint64(i * 3)
		}
		m := Metrics{ElapsedNS: int64(elapsed), Cycles: 7, Instructions: 9,
			DiskWriteBytes: 11, AllocBytes: 13}
		buf := EncodeSample(OUID(ou), int(pid), m, feats)
		s, err := DecodeSample(buf)
		if err != nil {
			return false
		}
		if s.OU != OUID(ou) || s.PID != int(pid) || s.Metrics != m {
			return false
		}
		if len(s.Features) != n {
			return false
		}
		for i := range feats {
			if s.Features[i] != feats[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSampleMalformed(t *testing.T) {
	var tp TrainingPoint
	_, perr := decodePoint(&tp, []byte{1, 2, 3})
	if _, err := DecodeSample([]byte{1, 2, 3}); err == nil || perr == nil {
		t.Fatalf("short buffer must fail: %v, %v", err, perr)
	}
	buf := EncodeSample(1, 1, Metrics{}, nil)
	buf[3*8] = 200 // nFeatures absurd
	_, perr = decodePoint(&tp, buf)
	if _, err := DecodeSample(buf); err == nil || perr == nil {
		t.Fatalf("inconsistent feature count must fail: %v, %v", err, perr)
	}
}

func TestFusedEncodeDecodeRoundTrip(t *testing.T) {
	parts := []FusedPart{
		{OU: 5, Features: []uint64{1, 2}},
		{OU: 6, Features: []uint64{3}},
		{OU: 7, Features: nil},
	}
	words, err := EncodeFusedFeatures(parts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFusedFeatures(words)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].OU != 5 || len(got[0].Features) != 2 ||
		got[1].Features[0] != 3 || len(got[2].Features) != 0 {
		t.Fatalf("round trip: %+v", got)
	}
	// Too large must fail.
	big := []FusedPart{{OU: 1, Features: make([]uint64, MaxFeatures)}}
	if _, err := EncodeFusedFeatures(big); err == nil {
		t.Fatalf("oversized fused vector must fail")
	}
	// Truncated vectors must fail to decode.
	if _, err := DecodeFusedFeatures([]uint64{2, 5, 3, 1}); err == nil {
		t.Fatalf("truncated fused vector must fail")
	}
	if _, err := DecodeFusedFeatures(nil); err == nil {
		t.Fatalf("empty fused vector must fail")
	}
}

func TestSlowProcessorDropsDontCorrupt(t *testing.T) {
	// Failure injection (§3.2): the ring overwrites under pressure; the
	// Processor must still decode everything it drains.
	k := kernel.New(sim.LargeHW, 1, 0)
	ts := New(k, Config{RingCapacity: 4, Seed: 3, DisableProcessorFeedback: true, ProcessorSink: &recordingBatchSink{}})
	m := ts.MustRegisterOU(OUDef{ID: 1, Name: "x", Subsystem: SubsystemExecutionEngine,
		Features: []string{"n"}}, ResourceSet{CPU: true})
	if err := ts.Deploy(); err != nil {
		t.Fatal(err)
	}
	ts.Sampler().SetAllRates(100)
	task := k.NewTask("worker")
	for i := 0; i < 50; i++ {
		runOU(ts, task, m, sim.Work{Instructions: 100, BytesTouched: 64}, uint64(i))
	}
	ts.Processor().Drain(DrainOptions{})
	if n := ts.Processor().Stats().Kernel[SubsystemExecutionEngine].DecodeErrors; n != 0 {
		t.Fatalf("decode errors under overwrite pressure: %d", n)
	}
	pts := sinkOf(ts).points()
	if got := len(pts); got != 4 {
		t.Fatalf("ring of 4 must deliver newest 4: %d", got)
	}
	// The newest samples survive.
	if pts[3].Features[0] != 49 {
		t.Fatalf("newest sample must survive: %+v", pts[3])
	}
}
