// Package experiment regenerates every table and figure of the paper's
// evaluation (§6). Each FigN function returns the rows the paper plots;
// cmd/tsbench prints them and this package's Test*Shape tests pin them.
// Absolute numbers come from the simulated substrate, so EXPERIMENTS.md
// compares shapes (who wins, by what factor, where crossovers fall)
// rather than raw values.
package experiment

import (
	"bytes"
	"fmt"

	"tscout/internal/archive"
	"tscout/internal/dbms"
	"tscout/internal/model"
	"tscout/internal/runner"
	"tscout/internal/sim"
	"tscout/internal/tscout"
	"tscout/internal/wal"
	"tscout/internal/workload"
)

// Scale selects experiment fidelity: Quick for CI-speed runs, Full for
// the numbers recorded in EXPERIMENTS.md.
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

// Quick is the CI-speed scale.
var Quick = Scale{
	OnlineTxns:       1500,
	RunnerScale:      1,
	RatePoints:       []int{0, 20, 60, 100},
	ConvergenceSizes: []int{200, 500, 1000, 2000},
}

// Full is the EXPERIMENTS.md scale.
var Full = Scale{
	OnlineTxns:       6000,
	RunnerScale:      2,
	RatePoints:       []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
	ConvergenceSizes: []int{500, 1000, 2000, 4000, 8000, 16000},
}

// trainer is the behavior-model family used throughout the evaluation.
// Forests extrapolate conservatively (constant beyond the training range),
// which is exactly why offline-runner data mis-predicts group-commit
// batches it never saw.
func trainer() model.Trainer { return model.Forest{Trees: 16, MaxDepth: 10, Seed: 7} }

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
		cfg.WAL = wal.Config{Synchronous: true}
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

// collectOnline runs a workload with TScout at the given sampling rate and
// returns the collected training data. It uses the paper's deployment
// configuration — single-threaded Processor, default ring depth, budgeted
// polls — so overload drops samples exactly as a production collector
// would.
func collectOnline(profile sim.HardwareProfile, gen workload.Generator,
	terminals, txns int, rate int, seed int64) (*onlineRun, error) {
	return runOnline(serverConfig(profile, tscout.KernelContinuous, true, seed, false), gen, rate,
		workload.Config{Terminals: terminals, Transactions: txns, Seed: seed}, newArchiveCapture(0))
}

// collectOnlineComplete is the data-hungry variant: a deep ring and an
// unbudgeted final sweep, so no sample is lost to collector saturation.
// Experiments whose conclusions depend on the training pool covering the
// whole run (Fig. 11's high-contention sweep, where 20 terminals
// oversubscribe the budgeted polls several times over) collect with
// this; the rest keep the production-shaped lossy pipeline.
func collectOnlineComplete(profile sim.HardwareProfile, gen workload.Generator,
	terminals, txns int, rate int, seed int64) (*onlineRun, error) {
	cfg := serverConfig(profile, tscout.KernelContinuous, true, seed, false)
	cfg.RingCapacity = 1 << 17
	return runOnline(cfg, gen, rate, workload.Config{
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

// subsystemErrors evaluates offline-only vs offline+online models per
// subsystem on a held-out online test set, returning per-subsystem
// average absolute error in microseconds.
type subsystemErrors struct {
	OfflineUS map[tscout.SubsystemID]float64
	OnlineUS  map[tscout.SubsystemID]float64
}

// splitPerSubsystem holds out a fraction of templates independently per
// subsystem, so subsystems with few invocation classes (the WAL pair)
// always retain both training and test data.
func splitPerSubsystem(points []model.Point, frac float64, seed int64) (train, test []model.Point) {
	for i, sub := range tscout.AllSubsystems {
		trn, tst := model.SplitByTemplate(model.FilterSub(points, sub), frac, seed+int64(i))
		train = append(train, trn...)
		test = append(test, tst...)
	}
	return train, test
}

func evalSubsystems(offline, onlineTrain, onlineTest []model.Point) (*subsystemErrors, error) {
	out := &subsystemErrors{
		OfflineUS: map[tscout.SubsystemID]float64{},
		OnlineUS:  map[tscout.SubsystemID]float64{},
	}
	for _, sub := range tscout.AllSubsystems {
		off := model.FilterSub(offline, sub)
		trn := model.FilterSub(onlineTrain, sub)
		tst := model.FilterSub(onlineTest, sub)
		if len(tst) == 0 {
			continue
		}
		offSet, err := model.Train(off, trainer())
		if err != nil {
			return nil, fmt.Errorf("offline %v: %w", sub, err)
		}
		out.OfflineUS[sub] = offSet.AvgAbsErrorByTemplate(tst)

		combined := append(append([]model.Point(nil), off...), trn...)
		onSet, err := model.Train(combined, trainer())
		if err != nil {
			return nil, fmt.Errorf("combined %v: %w", sub, err)
		}
		out.OnlineUS[sub] = onSet.AvgAbsErrorByTemplate(tst)
	}
	return out, nil
}

// reduction computes the paper's "reduction in average absolute error"
// percentage.
func reduction(offline, online float64) float64 {
	if offline <= 0 {
		return 0
	}
	return (offline - online) / offline * 100
}
