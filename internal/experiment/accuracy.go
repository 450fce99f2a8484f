package experiment

import (
	"tscout/internal/model"
	"tscout/internal/sim"
	"tscout/internal/tscout"
	"tscout/internal/workload"
)

// SubsystemRow is one bar of a per-subsystem accuracy figure.
type SubsystemRow struct {
	Subsystem tscout.SubsystemID
	Scenario  string
	// OfflineUS and OnlineUS are average absolute error per query
	// template in microseconds for offline-only vs offline+online
	// training data.
	OfflineUS float64
	OnlineUS  float64
	// ReductionPct is the paper's headline metric.
	ReductionPct float64
}

// Fig2 reproduces Figure 2 (offline vs online training data): models
// trained with offline runner data alone vs augmented with online TPC-C
// data, evaluated on held-out query templates: five folds of 20% each,
// so every template is held out once (templateFolds). The paper's
// shape: WAL subsystems improve most (93%, 77%), networking ~53%, the
// execution engine least (~9.5%). Each row averages sc's seed sets, and
// its reduction is that of the mean errors.
func Fig2(sc Scale) ([]SubsystemRow, error) {
	sets, err := seedSets(sc, func(off int64) ([]SubsystemRow, error) {
		offline, err := collectOffline(defaultProfile(), 21+off, sc)
		if err != nil {
			return nil, err
		}
		online, err := collectOnline(defaultProfile(), tpccGen(2), 16, sc.OnlineTxns, 22+off)
		if err != nil {
			return nil, err
		}
		errs, err := evalSubsystems(offline, templateFolds(online.Points, 5, 23+off)...)
		if err != nil {
			return nil, err
		}
		var rows []SubsystemRow
		for _, sub := range tscout.AllSubsystems {
			rows = append(rows, SubsystemRow{
				Subsystem: sub, Scenario: "tpcc-5fold-cv",
				OfflineUS: errs.OfflineUS[sub],
				OnlineUS:  errs.OnlineUS[sub],
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	rows := meanRows(sets, func(r *SubsystemRow) []*float64 { return []*float64{&r.OfflineUS, &r.OnlineUS} })
	for i := range rows {
		rows[i].ReductionPct = reduction(rows[i].OfflineUS, rows[i].OnlineUS)
	}
	return rows, nil
}

// Fig7 reproduces Figure 7 (adapting to environment changes): the DBMS
// migrates between machines; offline models were trained on the original
// hardware's runners, online data comes from one minute of TPC-C on the
// new hardware. The paper's shape: the disk writer improves most (98%,
// 86%), the log serializer up to 91%; the execution engine on smaller
// hardware is the one case online data does not help (§6.4 attributes it
// to the missing CPU context features).
func Fig7(sc Scale) ([]SubsystemRow, error) {
	var rows []SubsystemRow
	scenarios := []struct {
		name     string
		trainHW  sim.HardwareProfile // where the offline runners ran
		deployHW sim.HardwareProfile // where the DBMS now runs
	}{
		{"Larger HW", sim.SmallHW, sim.LargeHW},
		{"Smaller HW", sim.LargeHW, sim.SmallHW},
	}
	for i, sce := range scenarios {
		offline, err := collectOffline(sce.trainHW, int64(31+i), sc)
		if err != nil {
			return nil, err
		}
		online, err := collectOnline(sce.deployHW, tpccGen(2), 1, sc.OnlineTxns, int64(41+i))
		if err != nil {
			return nil, err
		}
		// The paper evaluates Fig. 7 with 5-fold cross-validation on the
		// combined data, so the split is row-wise.
		trainOn, testOn := model.SplitRows(online.Points, 0.2, int64(51+i))
		errs, err := evalSubsystems(offline, split{trainOn, testOn})
		if err != nil {
			return nil, err
		}
		for _, sub := range tscout.AllSubsystems {
			rows = append(rows, SubsystemRow{
				Subsystem: sub, Scenario: sce.name,
				OfflineUS:    errs.OfflineUS[sub],
				OnlineUS:     errs.OnlineUS[sub],
				ReductionPct: reduction(errs.OfflineUS[sub], errs.OnlineUS[sub]),
			})
		}
	}
	return rows, nil
}

// ConvergenceRow is one point of a Figure 9/10 convergence curve.
type ConvergenceRow struct {
	Subsystem tscout.SubsystemID
	DataSize  int
	// OfflineUS is the horizontal baseline; OnlineUS the error of a
	// model trained on DataSize online points.
	OfflineUS float64
	OnlineUS  float64
}

// Fig9 reproduces Figure 9 (model convergence, TPC-C): error vs online
// training-set size against the offline baseline. The paper's shape: the
// log serializer and disk writer converge far below the baseline; the
// networking difference is small; the execution engine's online benefit
// is marginal with a single client. Each point averages sc's seed sets.
func Fig9(sc Scale) ([]ConvergenceRow, error) {
	sets, err := seedSets(sc, func(off int64) ([]ConvergenceRow, error) {
		return convergence(tpccGen(2), 1, sc, 61+off)
	})
	if err != nil {
		return nil, err
	}
	return meanRows(sets, func(r *ConvergenceRow) []*float64 { return []*float64{&r.OfflineUS, &r.OnlineUS} }), nil
}

// Fig10 reproduces Figure 10 (model convergence, CH-benCHmark): the HTAP
// mix shows the same trends with a slower log-serializer convergence.
func Fig10(sc Scale) ([]ConvergenceRow, error) {
	return convergence(chbenchGen(1), 20, sc, 71)
}

func convergence(gen workload.Generator, terminals int, sc Scale, seed int64) ([]ConvergenceRow, error) {
	offline, err := collectOffline(defaultProfile(), seed, sc)
	if err != nil {
		return nil, err
	}
	// Collect a large online pool, then train on increasing samples.
	online, err := collectOnline(defaultProfile(), gen, terminals, sc.OnlineTxns*2, seed+1)
	if err != nil {
		return nil, err
	}
	// The paper evaluates convergence with 5-fold cross-validation, so
	// the split is row-wise: test templates also appear in training.
	trainPool, test := model.SplitRows(online.Points, 0.2, seed+2)

	var rows []ConvergenceRow
	for _, sub := range tscout.AllSubsystems {
		offSub := model.FilterSub(offline, sub)
		poolSub := model.FilterSub(trainPool, sub)
		testSub := model.FilterSub(test, sub)
		if len(testSub) == 0 || len(poolSub) == 0 {
			continue
		}
		offSet, err := model.Train(offSub, trainer())
		if err != nil {
			return nil, err
		}
		baseline := offSet.AvgAbsErrorByTemplate(testSub)
		for _, size := range sc.ConvergenceSizes {
			sample := model.Sample(poolSub, size, seed+3)
			combined := append(append([]model.Point(nil), offSub...), sample...)
			set, err := model.Train(combined, trainer())
			if err != nil {
				return nil, err
			}
			rows = append(rows, ConvergenceRow{
				Subsystem: sub,
				DataSize:  size,
				OfflineUS: baseline,
				OnlineUS:  set.AvgAbsErrorByTemplate(testSub),
			})
		}
	}
	return rows, nil
}

// Fig11Row is one bar of Figure 11: execution-engine error reduction from
// online data as client count grows.
type Fig11Row struct {
	Terminals    int
	DataSize     int
	OfflineUS    float64
	OnlineUS     float64
	ReductionPct float64
}

// Fig11 reproduces Figure 11 (convergence under concurrency): with more
// clients, contention that offline runners never see dominates execution
// time, so the offline models' error grows and online data's reduction
// approaches 98-99%.
func Fig11(sc Scale) ([]Fig11Row, error) {
	offline, err := collectOffline(defaultProfile(), 81, sc)
	if err != nil {
		return nil, err
	}
	offEE := model.FilterSub(offline, tscout.SubsystemExecutionEngine)
	var rows []Fig11Row
	for _, terminals := range []int{2, 5, 10, 20} {
		online, err := collectOnlineComplete(defaultProfile(), tpccGen(2), terminals,
			sc.OnlineTxns, int64(82+terminals))
		if err != nil {
			return nil, err
		}
		trainOn, testOn := model.SplitRows(online.Points, 0.2, 83)
		trainEE := model.FilterSub(trainOn, tscout.SubsystemExecutionEngine)
		testEE := model.FilterSub(testOn, tscout.SubsystemExecutionEngine)
		if len(testEE) == 0 {
			continue
		}
		offSet, err := model.Train(offEE, trainer())
		if err != nil {
			return nil, err
		}
		offErr := offSet.AvgAbsErrorByTemplate(testEE)
		// The paper's Fig. 11 sizes (10k/20k/30k) are large relative to
		// the collected pool; sweep quarters of the available data.
		sizes := []int{len(trainEE) / 4, len(trainEE) / 2, len(trainEE)}
		for _, size := range sizes {
			sample := model.Sample(trainEE, size, 84)
			set, err := model.Train(append(append([]model.Point(nil), offEE...), sample...), trainer())
			if err != nil {
				return nil, err
			}
			onErr := set.AvgAbsErrorByTemplate(testEE)
			rows = append(rows, Fig11Row{
				Terminals: terminals, DataSize: size,
				OfflineUS: offErr, OnlineUS: onErr,
				ReductionPct: reduction(offErr, onErr),
			})
		}
	}
	return rows, nil
}

// Fig12 reproduces Figure 12 (model generalization): online data is
// collected in one deployment setting, then the models predict a second,
// unseen setting. Scenarios vary database size, hardware, thread count,
// and the query set. The paper's shape: small-error models (networking,
// execution engine) stay robust; the disk writer degrades when migrating
// to larger hardware it has no context features for.
func Fig12(sc Scale) ([]SubsystemRow, error) {
	type scenario struct {
		name              string
		trainWH, evalWH   int
		trainHW, evalHW   sim.HardwareProfile
		trainCli, evalCli int
		templateHoldout   bool
	}
	scenarios := []scenario{
		{name: "Larger DB", trainWH: 1, evalWH: 4, trainHW: sim.LargeHW, evalHW: sim.LargeHW, trainCli: 1, evalCli: 1},
		{name: "Smaller DB", trainWH: 4, evalWH: 1, trainHW: sim.LargeHW, evalHW: sim.LargeHW, trainCli: 1, evalCli: 1},
		{name: "Larger HW", trainWH: 2, evalWH: 2, trainHW: sim.SmallHW, evalHW: sim.LargeHW, trainCli: 1, evalCli: 1},
		{name: "Smaller HW", trainWH: 2, evalWH: 2, trainHW: sim.LargeHW, evalHW: sim.SmallHW, trainCli: 1, evalCli: 1},
		{name: "More Threads", trainWH: 2, evalWH: 2, trainHW: sim.LargeHW, evalHW: sim.LargeHW, trainCli: 1, evalCli: 20},
		{name: "Fewer Threads", trainWH: 2, evalWH: 2, trainHW: sim.LargeHW, evalHW: sim.LargeHW, trainCli: 20, evalCli: 1},
		{name: "New Queries", trainWH: 2, evalWH: 2, trainHW: sim.LargeHW, evalHW: sim.LargeHW, trainCli: 1, evalCli: 1, templateHoldout: true},
	}
	var rows []SubsystemRow
	for i, sce := range scenarios {
		seed := int64(91 + i*10)
		offline, err := collectOffline(sce.trainHW, seed, sc)
		if err != nil {
			return nil, err
		}
		var s split
		if sce.templateHoldout {
			online, err := collectOnline(sce.trainHW, tpccGen(sce.trainWH),
				sce.trainCli, sc.OnlineTxns, seed+1)
			if err != nil {
				return nil, err
			}
			s = splitPerSubsystem(online.Points, 0.2, seed+2)
		} else {
			trainRun, err := collectOnline(sce.trainHW, tpccGen(sce.trainWH),
				sce.trainCli, sc.OnlineTxns, seed+1)
			if err != nil {
				return nil, err
			}
			evalRun, err := collectOnline(sce.evalHW, tpccGen(sce.evalWH),
				sce.evalCli, sc.OnlineTxns, seed+2)
			if err != nil {
				return nil, err
			}
			s = split{trainRun.Points, evalRun.Points}
		}
		errs, err := evalSubsystems(offline, s)
		if err != nil {
			return nil, err
		}
		for _, sub := range tscout.AllSubsystems {
			rows = append(rows, SubsystemRow{
				Subsystem: sub, Scenario: sce.name,
				OfflineUS:    errs.OfflineUS[sub],
				OnlineUS:     errs.OnlineUS[sub],
				ReductionPct: reduction(errs.OfflineUS[sub], errs.OnlineUS[sub]),
			})
		}
	}
	return rows, nil
}
