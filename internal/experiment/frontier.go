package experiment

import (
	"fmt"

	"tscout/internal/autopilot"
	"tscout/internal/model"
	"tscout/internal/sim"
	"tscout/internal/tscout"
	"tscout/internal/workload"
)

// FrontierRow is one point on the error-vs-overhead frontier: a sampling
// policy's accuracy (held-out per-template error of models trained only
// on the data that policy collected) against its cost (throughput loss
// vs collection-off).
type FrontierRow struct {
	// Policy names the sampling policy ("fixed 1%", ..., "autopilot").
	Policy string
	// ThroughputTPS is the run's transaction throughput.
	ThroughputTPS float64
	// OverheadPct is the throughput loss vs the collection-off baseline.
	OverheadPct float64
	// TrainingRows is how many archive rows the policy collected.
	TrainingRows int64
	// ErrorUS is the per-template held-out error (µs) of the online
	// models trained on the policy's data, evaluated on a common
	// full-rate reference set.
	ErrorUS float64
	// FinalRates is the per-subsystem sampling rate at the end of the
	// run (fixed policies: the configured rate throughout).
	FinalRates [tscout.NumSubsystems]int
	// Epochs and DriftEvents report controller activity (zero for fixed
	// policies).
	Epochs      int64
	DriftEvents int64
}

// frontierModel is the learner shared by every frontier policy: the same
// windowed-forest family the autopilot refreshes online, so the only
// variable across rows is the data each policy collected.
func frontierModel() model.OnlineModel {
	return &model.WindowedForest{Trees: 8, RefreshTrees: 2, MaxDepth: 8, Seed: 7}
}

// Frontier runs the error-vs-overhead frontier: fixed sampling at 1%,
// 10%, and 100% against the autopilot's error-driven adaptive policy, on
// the same seeded workload. Every policy trains the same online model
// family and is scored on the same full-rate reference test set; the
// autopilot additionally pays its controller ticks inside the measured
// run, so its overhead is honest.
//
// The frontier shape this reproduces: fixed 100% buys low error at high
// overhead, fixed 1% the reverse, and the autopilot takes both — it
// samples at 100% only until its models converge, then throttles to the
// floor, so its models train on an early full-rate flood while most of
// the run executes at near-zero collection cost.
//
// Each row averages sc's seed sets. A final rate averages the sets whose
// controller set it (-1 when none did); counts are rounded down.
func Frontier(sc Scale) ([]FrontierRow, error) {
	sets, err := seedSets(sc, func(off int64) ([]FrontierRow, error) {
		return frontier(sc, 411+off)
	})
	if err != nil {
		return nil, err
	}
	rows := meanRows(sets, func(r *FrontierRow) []*float64 {
		return []*float64{&r.ThroughputTPS, &r.OverheadPct, &r.ErrorUS}
	})
	n := int64(len(sets))
	for i := range rows {
		r := &rows[i]
		var rates, rated [tscout.NumSubsystems]int
		for k, s := range sets {
			if k > 0 {
				r.TrainingRows += s[i].TrainingRows
				r.Epochs += s[i].Epochs
				r.DriftEvents += s[i].DriftEvents
			}
			for sub, rate := range s[i].FinalRates {
				if rate >= 0 {
					rates[sub] += rate
					rated[sub]++
				}
			}
		}
		r.TrainingRows /= n
		r.Epochs /= n
		r.DriftEvents /= n
		for sub := range r.FinalRates {
			r.FinalRates[sub] = -1
			if rated[sub] > 0 {
				r.FinalRates[sub] = rates[sub] / rated[sub]
			}
		}
	}
	return rows, nil
}

// frontier runs every policy of the frontier once, at seed.
func frontier(sc Scale, seed int64) ([]FrontierRow, error) {
	profile := defaultProfile()
	// TPC-C: feature-dependent OU costs (order lines, payment amounts), so
	// model error actually responds to how much data a policy collected —
	// YCSB's near-constant per-template costs would flatten the error axis.
	gen := func() workload.Generator { return workload.Generator(tpccGen(4)) }

	// Common reference test set: a full-rate run on a held-out seed.
	ref, err := collectOnline(profile, gen(), 20, sc.OnlineTxns, seed+999)
	if err != nil {
		return nil, err
	}
	test := ref.Points

	// Collection-off baseline for the overhead axis.
	baseRun, _, err := frontierRun(profile, gen(), sc, 0, false, seed)
	if err != nil {
		return nil, err
	}
	baseTPS := baseRun.Result.ThroughputTPS

	var rows []FrontierRow
	for _, rate := range []int{1, 10, 100} {
		run, set, err := frontierRun(profile, gen(), sc, rate, false, seed)
		if err != nil {
			return nil, err
		}
		row := FrontierRow{
			Policy:        fmt.Sprintf("fixed %d%%", rate),
			ThroughputTPS: run.Result.ThroughputTPS,
			OverheadPct:   overheadPct(baseTPS, run.Result.ThroughputTPS),
			TrainingRows:  run.Result.TrainingPoints,
			ErrorUS:       set.AvgAbsErrorByTemplate(test),
		}
		for i := range row.FinalRates {
			row.FinalRates[i] = rate
		}
		rows = append(rows, row)
	}

	run, set, err := frontierRun(profile, gen(), sc, 100, true, seed)
	if err != nil {
		return nil, err
	}
	st := run.Result.Processor.Autopilot
	row := FrontierRow{
		Policy:        "autopilot",
		ThroughputTPS: run.Result.ThroughputTPS,
		OverheadPct:   overheadPct(baseTPS, run.Result.ThroughputTPS),
		TrainingRows:  run.Result.TrainingPoints,
		ErrorUS:       set.AvgAbsErrorByTemplate(test),
		Epochs:        st.Epochs,
	}
	for _, sub := range tscout.AllSubsystems {
		row.FinalRates[sub] = st.Rates[sub]
		row.DriftEvents += st.DriftEvents[sub]
	}
	rows = append(rows, row)
	return rows, nil
}

func overheadPct(base, tps float64) float64 {
	if base <= 0 {
		return 0
	}
	return (base - tps) / base * 100
}

// frontierChunk is the mini-batch size used to stream a fixed policy's
// archive through the online learner — the controller's effective batch
// granularity.
const frontierChunk = 512

// frontierRun is one measured policy run: an instrumented server with
// the segment writer as sink (the default single drain thread), and —
// for the autopilot policy — the controller ticking
// from the driver's OnDrain hook, inside the measured run. It returns
// the run and the online model set trained on the policy's data.
//
// Fixed policies stream their archive through the identical learner
// after the run (same mini-batch cadence the controller uses), so the
// frontier isolates the sampling policy: same workload, same seed, same
// models — only the collected data differs.
func frontierRun(profile sim.HardwareProfile, gen workload.Generator, sc Scale,
	rate int, auto bool, seed int64) (*onlineRun, *model.OnlineSet, error) {
	// Short segments so seals land every few controller epochs: at the
	// default 4096-row segments the controller would starve until the
	// final flush and never converge inside the measured run.
	ac := newArchiveCapture(frontierChunk)
	srv, err := startOnline(serverConfig(profile, tscout.KernelContinuous, true, seed, false), gen, rate, ac)
	if err != nil {
		return nil, nil, err
	}

	wcfg := workload.Config{
		Terminals: 20, Transactions: sc.OnlineTxns, Seed: seed,
		FinalDrain: true,
		// A tighter poll period than the 100µs default: the frontier runs
		// span only a few virtual milliseconds, and the controller needs
		// tens of epochs inside the run to converge and throttle while
		// throughput is still being measured. Applied to every policy so
		// drain cost stays identical across rows.
		ProcessorPollNS: 25_000,
	}
	var ctrl *autopilot.Controller
	if auto {
		ctrl = autopilot.New(srv.TS, ac.w, autopilot.Config{
			HWContext: hwContext(profile),
			NewModel:  frontierModel,
			// Scaled to the short run: decide from ~100 scored samples.
			MinSamples: 100,
		})
		wcfg.OnDrain = ctrl.Hook()
	}
	run, err := runWorkload(srv, gen, wcfg, ac)
	if err != nil {
		return nil, nil, err
	}

	if auto {
		// runWorkload's read-back flushed the writer: absorb that final
		// tail, then hand back the models the controller trained during
		// the run.
		ctrl.Tick()
		return run, ctrl.ModelSet(), nil
	}

	set := model.NewOnlineSet(frontierModel)
	pts := run.Points
	for lo := 0; lo < len(pts); lo += frontierChunk {
		hi := lo + frontierChunk
		if hi > len(pts) {
			hi = len(pts)
		}
		set.ObservePrequential(pts[lo:hi], nil)
		if err := set.Refit(); err != nil {
			return nil, nil, err
		}
	}
	return run, set, nil
}
