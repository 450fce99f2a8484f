// Package experiment regenerates every table and figure of the paper's
// evaluation (§6). Each FigN function returns the rows the paper plots, and
// Render writes them as text: cmd/tsbench prints it, and this package's
// Test*Shape tests assert each figure's shape and hold its text to the
// figure's block in EXPERIMENTS.md. Absolute numbers come from the
// simulated substrate, so EXPERIMENTS.md compares shapes (who wins, by what
// factor, where crossovers fall) rather than raw values.
package experiment

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"

	"tscout/internal/archive"
	"tscout/internal/dbms"
	"tscout/internal/model"
	"tscout/internal/runner"
	"tscout/internal/sim"
	"tscout/internal/tscout"
	"tscout/internal/wal"
	"tscout/internal/workload"
)

// Scale selects experiment fidelity: Quick for the figure-shape tests and
// EXPERIMENTS.md's blocks, Full for denser sweeps (`tsbench -full`).
type Scale struct {
	// OnlineTxns is the per-collection transaction budget.
	OnlineTxns int
	// RunnerScale multiplies offline sweep density.
	RunnerScale int
	// RatePoints are the sampling rates swept in Figs. 5/6.
	RatePoints []int
	// ConvergenceSizes are the training-set sizes of Figs. 9/10.
	ConvergenceSizes []int
}

// Quick is the one scale the figure-shape tests run and EXPERIMENTS.md records.
var Quick = Scale{
	OnlineTxns:       1200,
	RunnerScale:      1,
	RatePoints:       []int{0, 20, 100},
	ConvergenceSizes: []int{150, 400, 1000},
}

// Full sweeps more points, more slowly (`tsbench -full`).
var Full = Scale{
	OnlineTxns:       6000,
	RunnerScale:      2,
	RatePoints:       []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
	ConvergenceSizes: []int{500, 1000, 2000, 4000, 8000, 16000},
}

// seedSetTxns is how many online transactions a point of Figs. 2, 5/6
// and 9 and the frontier rests on: they run seedSetTxns/OnlineTxns seed
// sets, at least one, and average them (five at Quick, one at Full). One
// run of those figures is a single roll: which templates a split holds
// out, which flush a run's last commit waits for, which points a ring
// overwrites. Their claims turn on it at 1 200 transactions.
const seedSetTxns = 6000

// seedStride separates seed sets: seed set i adds i*seedStride to every
// seed its figure uses, so set 0 is the figure's own seeds.
const seedStride = 1000

// seedSets runs fig once per seed set of sc (seedSetTxns), giving it the
// set's seed offset, and returns each set's rows. Every set must yield the
// same rows in the same order (they differ only in the values measured),
// so the caller can average them row by row.
func seedSets[R any](sc Scale, fig func(offset int64) ([]R, error)) ([][]R, error) {
	sets := make([][]R, max(seedSetTxns/sc.OnlineTxns, 1))
	for i := range sets {
		rows, err := fig(int64(i) * seedStride)
		if err != nil {
			return nil, err
		}
		if i > 0 && len(rows) != len(sets[0]) {
			return nil, fmt.Errorf("seed set %d: %d rows, seed set 0 has %d", i, len(rows), len(sets[0]))
		}
		sets[i] = rows
	}
	return sets, nil
}

// meanRows returns sets[0] with each field that fields names replaced by
// its mean over every set, row by row.
func meanRows[R any](sets [][]R, fields func(*R) []*float64) []R {
	rows := sets[0]
	for i := range rows {
		sum := fields(&rows[i])
		for _, set := range sets[1:] {
			for f, v := range fields(&set[i]) {
				*sum[f] += *v
			}
		}
		for _, v := range sum {
			*v /= float64(len(sets))
		}
	}
	return rows
}

// trainer is the behavior-model family used throughout the evaluation.
// Forests extrapolate conservatively (constant beyond the training range),
// which is exactly why offline-runner data mis-predicts group-commit
// batches it never saw. Every split tries every feature (AllFeatures): a
// networking OU's three features include the constant clock speed, and a
// split drawing two of the three cut reads by bytes alone, so online data
// pulled an unseen template's one-message reads toward the offline
// runners' multi-message ones. The autopilot's refits keep the cheaper
// default, which they pay for in the DBMS's own loop.
func trainer() model.Trainer {
	return model.Forest{Trees: 16, MaxDepth: 10, Seed: 7, AllFeatures: true}
}

// hwContext returns the hardware features available to the models: per
// §6.4 the only CPU context feature is the clock speed.
func hwContext(p sim.HardwareProfile) []float64 {
	return []float64{p.ClockGHz * 1000}
}

const noiseSigma = 0.04

// defaultProfile is the paper's primary evaluation machine.
func defaultProfile() sim.HardwareProfile { return sim.LargeHW }

// serverConfig is the server configuration shared by the experiments.
func serverConfig(profile sim.HardwareProfile, mode tscout.Mode, instrument bool, seed int64, syncWAL bool) dbms.Config {
	cfg := dbms.Config{
		Profile:    profile,
		Seed:       seed,
		NoiseSigma: noiseSigma,
		Instrument: instrument,
		Mode:       mode,
		// Rates stay fixed during the sweeps, as in the paper's §6.2
		// methodology (the §3.2 feedback is evaluated separately).
		DisableFeedback: true,
	}
	if syncWAL {
		cfg.WAL = wal.Config{GroupSize: 1}
	} else {
		cfg.WAL = wal.Config{GroupSize: 32, FlushIntervalNS: 200_000}
	}
	return cfg
}

// archiveCapture is an experiment's training store: the Processor's drain
// path streams segments into buf through w (the server's Sink), and after
// the run the points are read back column-wise. The sink receives batches
// in global ring order at any drain parallelism, so the pool — and the
// seeded train/test splits downstream — is a function of the seed alone.
type archiveCapture struct {
	buf bytes.Buffer
	w   *archive.Writer
}

// newArchiveCapture returns a capture sealing segments of rowsPerSegment
// rows (0 = the writer's default).
func newArchiveCapture(rowsPerSegment int) *archiveCapture {
	ac := &archiveCapture{}
	ac.w = archive.NewWriterSize(&ac.buf, rowsPerSegment)
	return ac
}

// points flushes the writer and reads the archive back as model points.
func (ac *archiveCapture) points(profile sim.HardwareProfile) ([]model.Point, error) {
	if err := ac.w.Flush(); err != nil {
		return nil, err
	}
	r, err := archive.NewReader(ac.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return model.FromArchive(r, hwContext(profile))
}

// collectOffline runs the offline runners on the given hardware and
// returns their training data (with hardware context features attached).
func collectOffline(profile sim.HardwareProfile, seed int64, sc Scale) ([]model.Point, error) {
	return runOffline(serverConfig(profile, tscout.KernelContinuous, true, seed, true), sc)
}

// runOffline builds the server for cfg with an archive as its sink, runs
// the offline runners and reads the archive back.
func runOffline(cfg dbms.Config, sc Scale) ([]model.Point, error) {
	ac := newArchiveCapture(0)
	cfg.Sink = ac.w
	srv, err := dbms.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	if err := runner.RunAll(srv, runner.Config{Scale: sc.RunnerScale}); err != nil {
		return nil, err
	}
	srv.TS.Processor().Drain(tscout.DrainOptions{})
	return ac.points(cfg.Profile)
}

// onlineRun is one workload execution: its result and, when the run had an
// archive capture, the training points it collected.
type onlineRun struct {
	Points []model.Point
	Result workload.Result
}

// collectOnline runs a workload with TScout sampling every invocation and
// returns the collected training data. It uses the paper's deployment
// configuration — single-threaded Processor, default ring depth, budgeted
// polls — so overload drops samples exactly as a production collector
// would.
func collectOnline(profile sim.HardwareProfile, gen workload.Generator,
	terminals, txns int, seed int64) (*onlineRun, error) {
	return runOnline(serverConfig(profile, tscout.KernelContinuous, true, seed, false), gen, 100,
		workload.Config{Terminals: terminals, Transactions: txns, Seed: seed}, newArchiveCapture(0))
}

// collectOnlineComplete is the data-hungry variant: a deep ring and an
// unbudgeted final sweep, so no sample is lost to collector saturation.
// Experiments whose conclusions depend on the training pool covering the
// whole run (Fig. 11's high-contention sweep, where 20 terminals
// oversubscribe the budgeted polls several times over) collect with
// this; the rest keep the production-shaped lossy pipeline.
func collectOnlineComplete(profile sim.HardwareProfile, gen workload.Generator,
	terminals, txns int, seed int64) (*onlineRun, error) {
	cfg := serverConfig(profile, tscout.KernelContinuous, true, seed, false)
	cfg.RingCapacity = 1 << 17
	return runOnline(cfg, gen, 100, workload.Config{
		Terminals: terminals, Transactions: txns, Seed: seed, FinalDrain: true,
	}, newArchiveCapture(0))
}

// startOnline builds the server for cfg — with ac's writer as its sink
// when a capture is given; without one the Processor counts points and
// discards them — loads gen's database and sets every subsystem's sampling
// rate (an uninstrumented server has no sampler to set).
func startOnline(cfg dbms.Config, gen workload.Generator, rate int, ac *archiveCapture) (*dbms.Server, error) {
	if ac != nil {
		cfg.Sink = ac.w
	}
	srv, err := dbms.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	if err := gen.Setup(srv); err != nil {
		return nil, err
	}
	if srv.TS != nil {
		srv.TS.Sampler().SetAllRates(rate)
	}
	return srv, nil
}

// runWorkload drives gen against a started server and, given the capture
// the server was started with, reads the archive back. A capture that does
// not hold every point the Processor produced is an error: no figure is
// drawn from a pool that lost points on the way to the sink.
func runWorkload(srv *dbms.Server, gen workload.Generator, wcfg workload.Config, ac *archiveCapture) (*onlineRun, error) {
	res, err := workload.Run(srv, gen, wcfg)
	if err != nil {
		return nil, err
	}
	run := &onlineRun{Result: res}
	if ac != nil {
		if processed, archived := res.Processor.Processed, ac.w.Rows(); processed != archived {
			return nil, fmt.Errorf("training pool incomplete: processed %d, archived %d", processed, archived)
		}
		if run.Points, err = ac.points(srv.Kernel.Profile); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// runOnline is startOnline then runWorkload: the whole of an experiment
// that needs nothing from the server between or after the two.
func runOnline(cfg dbms.Config, gen workload.Generator, rate int,
	wcfg workload.Config, ac *archiveCapture) (*onlineRun, error) {
	srv, err := startOnline(cfg, gen, rate, ac)
	if err != nil {
		return nil, err
	}
	return runWorkload(srv, gen, wcfg, ac)
}

// tpccGen returns the scaled-down TPC-C generator. warehouses follows the
// paper's scale knob; the other dimensions are globally scaled down
// (DESIGN.md substitution table).
func tpccGen(warehouses int) *workload.TPCC {
	return &workload.TPCC{
		Warehouses:               warehouses,
		CustomersPerDistrict:     20,
		Items:                    200,
		InitialOrdersPerDistrict: 20,
	}
}

func chbenchGen(warehouses int) *workload.CHBench {
	return &workload.CHBench{TPCC: *tpccGen(warehouses)}
}

// split divides the online points into those a model trains on, beside
// the offline points, and those it is scored on.
type split struct{ train, test []model.Point }

// templateFolds is k-fold cross-validation by template: per subsystem, the
// templates are shuffled by seed and dealt into folds (template j to fold
// j mod k), and split f holds fold f's templates out. A subsystem with
// fewer templates than folds is held out one template per split, and one
// with a single template in none. TPC-C's networking and WAL subsystems
// have four to seven templates, so a single 20% holdout scores one of them.
func templateFolds(points []model.Point, k int, seed int64) []split {
	splits := make([]split, k)
	for i, sub := range tscout.AllSubsystems {
		pts := model.FilterSub(points, sub)
		tmpls := templates(pts)
		if len(tmpls) < 2 {
			continue
		}
		rng := rand.New(sim.NewPCG(seed, uint64(i)))
		rng.Shuffle(len(tmpls), func(a, b int) { tmpls[a], tmpls[b] = tmpls[b], tmpls[a] })
		fold := make(map[uint64]int, len(tmpls))
		for j, t := range tmpls {
			fold[t] = j % k
		}
		for _, p := range pts {
			for f := range splits {
				if fold[p.Template] == f {
					splits[f].test = append(splits[f].test, p)
				} else {
					splits[f].train = append(splits[f].train, p)
				}
			}
		}
	}
	return splits
}

// templates returns the distinct templates of pts, ascending.
func templates(pts []model.Point) []uint64 {
	t := make([]uint64, len(pts))
	for i, p := range pts {
		t[i] = p.Template
	}
	slices.Sort(t)
	return slices.Compact(t)
}

// scoreSplits trains one model on the offline points off and, per split,
// one on off plus the split's training points, and scores both on the
// split's test points (AvgAbsErrorByTemplate): offUS[i] and onUS[i] are
// split i's errors. The offline model is trained once, and scored once per
// test set: a split whose test slice is the previous split's (sized's
// splits share one) reuses that score. A split with no test points trains
// nothing and scores 0.
func scoreSplits(off []model.Point, splits ...split) (offUS, onUS []float64, err error) {
	offUS = make([]float64, len(splits))
	onUS = make([]float64, len(splits))
	var offSet *model.OUModelSet
	var scored []model.Point // the test set offUS[i-1] scored, if any
	for i, s := range splits {
		if len(s.test) == 0 {
			scored = nil
			continue
		}
		if offSet == nil {
			if offSet, err = model.Train(off, trainer()); err != nil {
				return nil, nil, fmt.Errorf("offline: %w", err)
			}
		}
		onSet, err := model.Train(slices.Concat(off, s.train), trainer())
		if err != nil {
			return nil, nil, fmt.Errorf("combined: %w", err)
		}
		if len(scored) == len(s.test) && &scored[0] == &s.test[0] {
			offUS[i] = offUS[i-1]
		} else {
			offUS[i] = offSet.AvgAbsErrorByTemplate(s.test)
		}
		scored = s.test
		onUS[i] = onSet.AvgAbsErrorByTemplate(s.test)
	}
	return offUS, onUS, nil
}

// sized returns one split per training-set size: a sample of that many
// points of pool (model.Sample) to train on, each scored on test.
func sized(pool, test []model.Point, sizes []int, seed int64) []split {
	splits := make([]split, len(sizes))
	for i, n := range sizes {
		splits[i] = split{model.Sample(pool, n, seed), test}
	}
	return splits
}

// evalSubsystems scores each subsystem's share of the splits against its
// offline points (scoreSplits), one scenario row per subsystem. A
// subsystem's errors weight each split by the templates it scores, so over
// templateFolds they average every template, each scored by models that
// never saw it. A subsystem no split tests scores 0.
func evalSubsystems(scenario string, offline []model.Point, splits ...split) ([]SubsystemRow, error) {
	var rows []SubsystemRow
	for _, sub := range tscout.AllSubsystems {
		subSplits := make([]split, len(splits))
		for i, s := range splits {
			subSplits[i] = split{model.FilterSub(s.train, sub), model.FilterSub(s.test, sub)}
		}
		offUS, onUS, err := scoreSplits(model.FilterSub(offline, sub), subSplits...)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", sub, err)
		}
		var offSum, onSum float64
		var scored int
		for i, s := range subSplits {
			n := len(templates(s.test))
			offSum += offUS[i] * float64(n)
			onSum += onUS[i] * float64(n)
			scored += n
		}
		row := SubsystemRow{Subsystem: sub, Scenario: scenario}
		if scored > 0 {
			row.OfflineUS, row.OnlineUS = offSum/float64(scored), onSum/float64(scored)
			row.ReductionPct = reduction(row.OfflineUS, row.OnlineUS)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// reduction computes the paper's "reduction in average absolute error"
// percentage.
func reduction(offline, online float64) float64 {
	if offline <= 0 {
		return 0
	}
	return (offline - online) / offline * 100
}
