package experiment

import (
	"math"
	"slices"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/dbms"
	"tscout/internal/kernel"
	"tscout/internal/model"
	"tscout/internal/sim"
	"tscout/internal/tscout"
	"tscout/internal/wal"
	"tscout/internal/workload"
)

// This file measures whether ring overwrite biases the training pool
// (ROADMAP item 19(a)): per OU, the two-sample Kolmogorov–Smirnov distance
// between the elapsed_ns of the samples the Collectors submitted, read off
// the kernel's event stream, and of the points the archive kept.

// submitLog folds a kernel's event stream into what the Collectors submitted
// to the perf rings: each OU's elapsed_ns values and each subsystem's submit
// count.
type submitLog struct {
	ts      *tscout.TScout
	events  []kernel.Event
	elapsed map[tscout.OUID][]int64
	bySub   [tscout.NumSubsystems]int64
}

// fold consumes the stream attached to k and attaches its buffer again,
// empty. A stream that dropped an event fails t: its census is incomplete.
func (l *submitLog) fold(t *testing.T, k *kernel.Kernel) {
	evs, dropped := k.Observe(l.events)
	if dropped != 0 {
		t.Fatalf("the event stream dropped %d events", dropped)
	}
	for _, e := range evs {
		if e.Kind != kernel.EvSubmit {
			continue
		}
		ou := tscout.OUID(e.Arg[0])
		def, ok := l.ts.OU(ou)
		if !ok {
			t.Fatalf("submit of unregistered OU %d: %v", ou, e)
		}
		l.bySub[def.Subsystem]++
		l.elapsed[ou] = append(l.elapsed[ou], int64(e.Arg[4]))
	}
}

// ouBias is one OU's row of the measurement.
type ouBias struct {
	name                string
	submitted, archived int
	ks                  float64
}

// measureRingBias runs gen on srv, which was started with ac as its sink,
// folding the kernel's event stream at every drain, and returns one row per
// OU that submitted a sample, in OU order, with the run. Submit events per
// subsystem must equal the rings' Submitted count.
func measureRingBias(t *testing.T, srv *dbms.Server, gen workload.Generator, wcfg workload.Config, ac *archiveCapture) ([]ouBias, *onlineRun) {
	t.Helper()
	log := &submitLog{ts: srv.TS, events: make([]kernel.Event, 0, 1<<16), elapsed: map[tscout.OUID][]int64{}}
	srv.Kernel.Observe(log.events)
	wcfg.OnDrain = func(int64) { log.fold(t, srv.Kernel) }
	run, err := runWorkload(srv, gen, wcfg, ac)
	if err != nil {
		t.Fatal(err)
	}
	log.fold(t, srv.Kernel)
	srv.Kernel.Observe(nil)
	for _, sub := range tscout.AllSubsystems {
		if got, want := log.bySub[sub], run.Result.Processor.Kernel[sub].Submitted; got != want {
			t.Fatalf("%s: %d submit events, the rings counted %d submitted", sub, got, want)
		}
	}
	r, err := archive.NewReader(ac.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := r.Points()
	if err != nil {
		t.Fatal(err)
	}
	archived := map[tscout.OUID][]int64{}
	for _, p := range pts {
		archived[p.OU] = append(archived[p.OU], p.Metrics.ElapsedNS)
	}
	var rows []ouBias
	var ous []tscout.OUID
	for ou := range log.elapsed {
		ous = append(ous, ou)
	}
	slices.Sort(ous)
	for _, ou := range ous {
		def, _ := srv.TS.OU(ou)
		sub, kept := log.elapsed[ou], archived[ou]
		if len(kept) > len(sub) {
			t.Fatalf("%s: %d points archived from %d submitted samples", def.Name, len(kept), len(sub))
		}
		rows = append(rows, ouBias{name: def.Name, submitted: len(sub), archived: len(kept), ks: ksDistance(sub, kept)})
	}
	return rows, run
}

// ksDistance is the two-sample Kolmogorov–Smirnov statistic: the largest
// gap between the empirical distribution functions of a and b (1 when only
// one of them is empty).
func ksDistance(a, b []int64) float64 {
	if len(a) == 0 || len(b) == 0 {
		if len(a) == len(b) {
			return 0
		}
		return 1
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	var d float64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

func TestKSDistance(t *testing.T) {
	for _, c := range []struct {
		a, b []int64
		want float64
	}{
		{[]int64{3, 1, 2}, []int64{2, 3, 1}, 0},
		{[]int64{1, 2}, []int64{3, 4}, 1},
		{[]int64{1, 2, 3, 4}, []int64{3, 4}, 0.5},
		{[]int64{1, 1, 2, 2}, []int64{1, 2}, 0},
		{nil, []int64{1}, 1},
	} {
		if got := ksDistance(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ksDistance(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// logBias logs a measurement's rows, each distance beside the one the KS
// test rejects "same distribution" above at the 5 % level, and fails t if a
// lossless run moved any OU's distribution.
func logBias(t *testing.T, rows []ouBias, lossless bool) {
	t.Helper()
	for _, r := range rows {
		n, m := float64(r.submitted), float64(r.archived)
		t.Logf("%-16s submitted %6d  archived %6d  KS %.4f  (5 %% critical %.4f)",
			r.name, r.submitted, r.archived, r.ks, 1.358*math.Sqrt((n+m)/(n*m)))
		if lossless && (r.ks != 0 || r.archived != r.submitted) {
			t.Fatalf("%s: a lossless run archived %d of %d samples at KS %v", r.name, r.archived, r.submitted, r.ks)
		}
	}
}

// TestRingBiasTATP measures the bias on the benchmark's tatp_full shape
// (twenty terminals, one CPU, one drain thread, group commit, every event
// sampled, budgeted polls and a final sweep) at a fiftieth of its
// transactions, the size of the benchmark's own assembly check.
func TestRingBiasTATP(t *testing.T) {
	t.Parallel()
	ac := newArchiveCapture(0)
	gen := &workload.TATP{Subscribers: 2000}
	srv, err := startOnline(dbms.Config{
		Profile: sim.LargeHW, Seed: 21, NoiseSigma: 0.03,
		Instrument: true, Mode: tscout.KernelContinuous, DisableFeedback: true,
		ProcessorParallelism: 1, NumCPUs: 1,
		WAL: wal.Config{GroupSize: 32, FlushIntervalNS: 200_000},
	}, gen, 100, ac)
	if err != nil {
		t.Fatal(err)
	}
	rows, run := measureRingBias(t, srv, gen, workload.Config{Terminals: 20, Transactions: 4000, Seed: 21, FinalDrain: true}, ac)
	if run.Result.Processor.TotalDropped() == 0 {
		t.Fatalf("the rings never overwrote a sample: nothing was measured")
	}
	logBias(t, rows, false)
}

// TestRingBiasFig11 measures the bias on Fig. 11's twenty-terminal TPC-C run
// collected through the production path (collectOnline's configuration:
// default ring, budgeted polls, no final sweep), and on the same run
// collected whole (collectOnlineComplete's: a 2¹⁷-sample ring and a final
// sweep), where no sample is lost and so every OU's distance must be 0. It
// logs both pools' execution-engine model error.
func TestRingBiasFig11(t *testing.T) {
	t.Parallel()
	sc := Quick
	const terminals = 20
	seed := int64(82 + terminals)
	offline, err := collectOffline(defaultProfile(), 81, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, complete := range []bool{false, true} {
		cfg := serverConfig(defaultProfile(), tscout.KernelContinuous, true, seed, false)
		wcfg := workload.Config{Terminals: terminals, Transactions: sc.OnlineTxns, Seed: seed}
		if complete {
			cfg.RingCapacity, wcfg.FinalDrain = 1<<17, true
		}
		ac := newArchiveCapture(0)
		gen := tpccGen(2)
		srv, err := startOnline(cfg, gen, 100, ac)
		if err != nil {
			t.Fatal(err)
		}
		rows, run := measureRingBias(t, srv, gen, wcfg, ac)
		if lost := run.Result.Processor.TotalDropped(); complete != (lost == 0) {
			t.Fatalf("complete=%v: the rings overwrote %d samples", complete, lost)
		}
		t.Logf("complete=%v", complete)
		logBias(t, rows, complete)
		offErr, onErr := fig11Errors(offline, run.Points)
		t.Logf("complete=%v: execution engine offline error %.3f µs, offline+online %.3f µs (reduction %.1f %%)",
			complete, offErr, onErr, reduction(offErr, onErr))
	}
}

// fig11Errors is Fig. 11's evaluation of one online pool at its largest
// data size: the execution-engine error of the offline model and of the
// model trained on the offline data plus the pool's training split.
func fig11Errors(offline, online []model.Point) (offErr, onErr float64) {
	offEE := model.FilterSub(offline, tscout.SubsystemExecutionEngine)
	trainOn, testOn := model.SplitRows(online, 0.2, 83)
	trainEE := model.FilterSub(trainOn, tscout.SubsystemExecutionEngine)
	testEE := model.FilterSub(testOn, tscout.SubsystemExecutionEngine)
	offSet, err := model.Train(offEE, trainer())
	if err != nil {
		return math.NaN(), math.NaN()
	}
	set, err := model.Train(append(append([]model.Point(nil), offEE...), model.Sample(trainEE, len(trainEE), 84)...), trainer())
	if err != nil {
		return math.NaN(), math.NaN()
	}
	return offSet.AvgAbsErrorByTemplate(testEE), set.AvgAbsErrorByTemplate(testEE)
}
