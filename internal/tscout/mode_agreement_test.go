package tscout

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

// This file holds the mode-agreement test: one seeded stream of marker calls
// runs once in each collection mode, and every mode must archive the same
// points and count the same losses. The modes differ in what a marker costs
// and in how fast the Processor retrieves a sample (DESIGN.md §4, "What the
// user modes keep"), never in which samples survive the §5.1 state machine.

// markerStream drives one deployment's markers from one task.
type markerStream struct {
	ts                *TScout
	k                 *kernel.Kernel
	task              *kernel.Task
	scan, filter, wal *Marker
	rng               *rand.Rand
	next              uint64 // the last OU's feature value: every point is told apart
}

// begin opens an OU of m's and charges it some work.
func (s *markerStream) begin(m *Marker) {
	s.ts.BeginEvent(s.task, m.def.Subsystem)
	m.Begin(s.task)
	s.task.Charge(sim.Work{Instructions: float64(2000 + s.rng.Intn(50000)),
		BytesTouched: float64(s.rng.Intn(8192)), DiskWriteBytes: int64(s.rng.Intn(2) * 512)})
}

// finish closes m's innermost OU with END and FEATURES.
func (s *markerStream) finish(m *Marker) {
	m.End(s.task)
	s.next++
	m.Features(s.task, int64(s.rng.Intn(4096)), s.next, s.next)
}

func (s *markerStream) clean() { s.begin(s.scan); s.finish(s.scan) }

// streamCases are the shapes the state machine must agree on: clean and
// nested OUs, OUs of two subsystems interleaved on one task, an END with
// nothing in flight, nesting deeper than MaxOUDepth, a fused FEATURES, a
// counter wrap and a migration between BEGIN and END, and a task killed
// mid-OU whose pid the next task recycles.
var streamCases = []struct {
	name string
	run  func(s *markerStream)
}{
	{"clean", (*markerStream).clean},
	{"nested", func(s *markerStream) { s.begin(s.scan); s.begin(s.filter); s.finish(s.filter); s.finish(s.scan) }},
	{"two-subsystems", func(s *markerStream) { s.begin(s.scan); s.begin(s.wal); s.finish(s.scan); s.finish(s.wal) }},
	{"end-without-begin", func(s *markerStream) { s.scan.End(s.task); s.clean() }},
	{"too-deep", func(s *markerStream) {
		for i := 0; i <= MaxOUDepth; i++ {
			s.begin(s.scan)
		}
		for i := 0; i <= MaxOUDepth; i++ {
			s.finish(s.scan)
		}
	}},
	{"fused", func(s *markerStream) {
		s.begin(s.scan)
		s.scan.End(s.task)
		s.next++
		if err := s.scan.FeaturesVector(s.task, 64, []FusedPart{
			{OU: testOUSeqScan, Features: []uint64{s.next, s.next}}, {OU: testOUFilter, Features: []uint64{s.next}},
		}); err != nil {
			panic(err)
		}
	}},
	{"counter-wrap", func(s *markerStream) {
		s.begin(s.scan)
		s.task.Perf().InjectWrap(float64(uint64(1) << 44))
		s.finish(s.scan)
	}},
	{"migration", func(s *markerStream) { s.begin(s.scan); s.task.Migrate(s.task.CPU() + 1); s.finish(s.scan) }},
	{"kill-mid-ou", func(s *markerStream) {
		s.begin(s.scan)
		s.k.ExitTask(s.task)
		s.task = s.k.NewTask("respawn")
		s.clean()
	}},
}

// modeOutcome is what a mode made of a stream: the part of each archived
// point every mode must agree on (the metrics differ by what each mode's
// probes cost), and the losses it counted.
type modeOutcome struct {
	points  []streamPoint
	orphans OrphanCounts
	corrupt int64
	// zeroCycles counts archived points whose cycle counter did not move:
	// every case charges real work, so such a point is a wrap that went
	// unseen.
	zeroCycles int
}

type streamPoint struct {
	OU         OUID
	PID        int
	Features   []float64
	AllocBytes int64
}

// runStream runs the given cases in order, bracketed by clean OUs, with a
// drain after each case so a kill is reaped where it happened, and reads
// the result back.
func runStream(t *testing.T, mode Mode, seed int64, cases []int) modeOutcome {
	t.Helper()
	k := kernel.New(sim.LargeHW, seed, 0)
	k.SetNumCPUs(2)
	ts := New(k, Config{Mode: mode, Seed: seed, DisableProcessorFeedback: true, ProcessorSink: &recordingBatchSink{}})
	s := &markerStream{ts: ts, k: k, task: k.NewTask("worker"), rng: rand.New(rand.NewSource(seed))}
	s.scan = ts.MustRegisterOU(OUDef{ID: testOUSeqScan, Name: "seq_scan", Subsystem: SubsystemExecutionEngine,
		Features: []string{"num_rows", "row_bytes"}}, ResourceSet{CPU: true, Disk: true})
	s.filter = ts.MustRegisterOU(OUDef{ID: testOUFilter, Name: "filter", Subsystem: SubsystemExecutionEngine,
		Features: []string{"num_rows"}}, ResourceSet{CPU: true})
	s.wal = ts.MustRegisterOU(OUDef{ID: testOUWAL, Name: "log_serialize", Subsystem: SubsystemLogSerializer,
		Features: []string{"num_records", "bytes"}}, ResourceSet{CPU: true, Disk: true})
	if err := ts.Deploy(); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	ts.Sampler().SetAllRates(100)

	s.clean()
	for _, c := range cases {
		streamCases[c].run(s)
		ts.Processor().Drain(DrainOptions{})
	}
	s.clean()
	ts.Processor().Drain(DrainOptions{})
	st := ts.Processor().Stats()
	out := modeOutcome{orphans: st.TotalOrphans(), corrupt: st.TotalCorruptDiscards()}
	for _, tp := range sinkOf(ts).points() {
		out.points = append(out.points, streamPoint{tp.OU, tp.PID, tp.Features, tp.Metrics.AllocBytes})
		if tp.Metrics.Cycles == 0 {
			out.zeroCycles++
		}
	}
	return out
}

// TestModeAgreement runs each stream case alone, and then every case four
// times in a seeded order, in all three modes: the user modes must archive
// the same (OU, pid, features, AllocBytes) sequence as Kernel-Continuous and
// count the same orphans and corrupt discards. Every mode must discard each
// counter-wrap case as corrupt and archive no point with a zero cycle count,
// which is what a wrap that left END reading the same as BEGIN produced.
func TestModeAgreement(t *testing.T) {
	check := func(t *testing.T, seed int64, cases []int) {
		var wraps int64
		for _, c := range cases {
			if streamCases[c].name == "counter-wrap" {
				wraps++
			}
		}
		run := func(mode Mode) modeOutcome {
			out := runStream(t, mode, seed, cases)
			if out.corrupt != wraps || out.zeroCycles != 0 {
				t.Errorf("%v: %d counter wraps, %d corrupt discards and %d zero-cycle points archived",
					mode, wraps, out.corrupt, out.zeroCycles)
			}
			return out
		}
		want := run(KernelContinuous)
		for _, mode := range []Mode{UserToggle, UserContinuous} {
			got := run(mode)
			if !reflect.DeepEqual(got.points, want.points) {
				i := 0
				for i < min(len(got.points), len(want.points)) && reflect.DeepEqual(got.points[i], want.points[i]) {
					i++
				}
				t.Errorf("%v archived %d points, Kernel-Continuous %d; they part at point %d:\n got  %v\n want %v",
					mode, len(got.points), len(want.points), i,
					got.points[i:min(i+3, len(got.points))], want.points[i:min(i+3, len(want.points))])
			}
			if got.orphans != want.orphans || got.corrupt != want.corrupt {
				t.Errorf("%v counted orphans %+v and %d corrupt, Kernel-Continuous %+v and %d",
					mode, got.orphans, got.corrupt, want.orphans, want.corrupt)
			}
		}
	}
	for i, c := range streamCases {
		t.Run("case="+c.name, func(t *testing.T) { check(t, 1, []int{i}) })
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var cases []int
			for i := 0; i < 4*len(streamCases); i++ {
				cases = append(cases, i%len(streamCases))
			}
			rand.New(rand.NewSource(seed)).Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
			check(t, seed, cases)
		})
	}
}
