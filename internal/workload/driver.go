// Package workload implements the paper's five evaluation workloads (YCSB
// read-only, SmallBank with the added Transfer transaction, TATP, TPC-C,
// and the CH-benCHmark HTAP mix) plus the discrete-event driver that runs
// them against the simulated DBMS: terminals execute transactions in
// virtual-time order, commits block on the group-commit WAL, and the
// TScout Processor polls on its own schedule.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"tscout/internal/dbms"
	"tscout/internal/sim"
	"tscout/internal/tscout"
	"tscout/internal/wal"
)

// Generator is one benchmark: schema+load plus a transaction mix.
type Generator interface {
	Name() string
	// Setup creates the schema and loads the data (uninstrumented).
	Setup(srv *dbms.Server) error
	// Txn runs one transaction on the session, returning the WAL commit
	// handle (nil for read-only) or an error. Serialization conflicts
	// are returned as errors satisfying dbms.IsConflict.
	Txn(se *dbms.Session, rng *rand.Rand) (*wal.Commit, error)
}

// contextSwitchesPerTxn models scheduler activity per transaction: one
// dispatch, one IO wait.
const contextSwitchesPerTxn = 2

// Config tunes one driver run.
type Config struct {
	// Terminals is the number of concurrent clients.
	Terminals int
	// Transactions is the total transaction budget (completed+aborted).
	Transactions int
	// Seed drives the terminals' randomness.
	Seed int64
	// ProcessorPollNS is the Processor's drain period in virtual time
	// (default 100µs), and the pooled driver's epoch length. Uninstrumented
	// servers have no Processor and are never polled.
	ProcessorPollNS int64
	// ExternalCollect makes every terminal use EXPLAIN-based external
	// feature collection (§2.2) instead of relying on TScout markers.
	ExternalCollect bool
	// FinalDrain makes the end-of-run Processor sweep unbudgeted, so
	// every sample still buffered is delivered. Overhead experiments
	// leave this off (a real deployment snapshot loses in-flight
	// samples); accuracy experiments turn it on because they consume the
	// training data itself.
	FinalDrain bool
	// PoolSessions engages the pooled multi-core epoch driver: terminals
	// multiplex onto this many pooled DBMS sessions (pinned round-robin
	// across the simulated CPUs) behind an admission gate, which is how the
	// driver scales to thousands of terminals. Zero keeps the legacy
	// one-session-per-terminal single-clock driver that every recorded
	// experiment used.
	PoolSessions int
	// OnDrain, when set, runs on the driver goroutine immediately after
	// every Processor drain (periodic and final), with the virtual time
	// of the drain. This is the autopilot controller's epoch tick: it
	// fires at a deterministic point in the run schedule — never from a
	// wall-clock timer — so anything the hook does (retuning sampling
	// rates, refreshing models) lands at the same virtual instant on
	// every same-seed rerun. The plain func type keeps workload free of
	// a dependency on the controller package.
	OnDrain func(nowNS int64)
}

func (c Config) withDefaults() Config {
	if c.Terminals <= 0 {
		c.Terminals = 1
	}
	if c.Transactions <= 0 {
		c.Transactions = 1000
	}
	if c.ProcessorPollNS <= 0 {
		c.ProcessorPollNS = 100_000
	}
	return c
}

// Result summarizes one run.
type Result struct {
	Completed int
	Aborted   int
	// ElapsedNS is the virtual makespan of the run.
	ElapsedNS int64 //tsvet:ignore unread-field the golden renders read it
	// ThroughputTPS is completed transactions per virtual second.
	ThroughputTPS float64
	// P50NS and P99NS are transaction latency percentiles.
	P50NS, P99NS int64 //tsvet:ignore unread-field the golden renders read P50NS
	// MeanNS is the mean transaction latency.
	MeanNS int64 //tsvet:ignore unread-field the golden renders read it
	// TrainingPoints is the number of points the Processor produced
	// during the run (instrumented runs only).
	TrainingPoints int64
	// SamplesPerSec is the training-data generation rate.
	SamplesPerSec float64
	// Processor is the drain pipeline's self-observed telemetry at the
	// end of the run (zero value for uninstrumented runs).
	Processor tscout.ProcessorStats
	// Admission is the gate's census at the end of a pooled run (zero
	// value for the legacy driver).
	Admission dbms.GateStats
	// Epochs and BarrierEvents report the multi-core engine's activity in
	// a pooled run: epochs executed and cross-CPU events merged at
	// barriers.
	Epochs        int64
	BarrierEvents int64
}

// terminal is one legacy-driver client. Like a pooledTerminal, it holds
// its PCG stream and math/rand's method set over it by value, in the one
// terminals slice.
type terminal struct {
	se      *dbms.Session
	src     sim.PCG
	rng     rand.Rand
	pending *wal.Commit
	startNS int64
}

// Run drives the generator against the server until the transaction
// budget is exhausted. With Config.PoolSessions set it runs the pooled
// multi-core epoch driver; otherwise the legacy single-clock driver.
func Run(srv *dbms.Server, gen Generator, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.PoolSessions > 0 {
		return runPooled(srv, gen, cfg)
	}
	srv.Kernel.SetLoadFactor(float64(cfg.Terminals))
	defer srv.Kernel.SetLoadFactor(1)

	terms := make([]terminal, cfg.Terminals)
	for i := range terms {
		t := &terms[i]
		t.se = srv.NewSession()
		t.se.ExternalCollect = cfg.ExternalCollect
		t.src.Reseed(cfg.Seed, uint64(i))
		t.rng = *rand.New(&t.src)
	}

	var (
		res        Result
		latencies  []int64
		lastPoll   int64
		basePoints int64
	)
	if srv.TS != nil {
		basePoints = srv.TS.Processor().Stats().Processed
	}

	finish := func(t *terminal, endNS int64) {
		latencies = append(latencies, endNS-t.startNS)
		res.Completed++
	}

	started := 0
	for res.Completed+res.Aborted < cfg.Transactions {
		// Unblock terminals whose group commit resolved.
		progressed := false
		for i := range terms {
			t := &terms[i]
			if t.pending != nil && t.pending.Resolved {
				t.se.Task.Clock.AdvanceTo(t.pending.DoneNS)
				finish(t, t.se.Task.Now())
				t.pending = nil
				progressed = true
			}
		}
		if res.Completed+res.Aborted >= cfg.Transactions {
			break
		}

		// Pick the runnable terminal furthest behind in virtual time,
		// but only start new work while budget remains.
		var next *terminal
		if started < cfg.Transactions {
			for i := range terms {
				t := &terms[i]
				if t.pending != nil {
					continue
				}
				if next == nil || t.se.Task.Now() < next.se.Task.Now() {
					next = t
				}
			}
		}

		// Everyone blocked: the WAL's flush deadline is the next event.
		if next == nil {
			dl := srv.WAL.NextDeadline()
			if dl < 0 {
				if progressed {
					continue
				}
				return res, fmt.Errorf("workload: deadlock — all terminals blocked with no WAL deadline")
			}
			srv.WAL.Tick(dl)
			continue
		}

		now := next.se.Task.Now()
		// Flush any overdue group-commit batch before running further.
		srv.WAL.Tick(now)

		// The Processor drains on its own schedule: whenever at least one
		// nominal period has elapsed, each drain thread gets exactly one
		// period's sample budget. A thread woken after a longer sleep
		// does not accumulate catch-up credit — it works one period, then
		// sleeps again — so collection capacity is paced by the poll
		// schedule, as in a real periodic drain loop.
		if srv.TS != nil && now-lastPoll >= cfg.ProcessorPollNS {
			srv.TS.Processor().Drain(tscout.DrainOptions{Budget: tscout.BudgetForPeriod(cfg.ProcessorPollNS)})
			lastPoll = now
			if cfg.OnDrain != nil {
				cfg.OnDrain(now)
			}
		}

		next.startNS = now
		started++
		for i := 0; i < contextSwitchesPerTxn; i++ {
			next.se.Task.ContextSwitch()
		}
		commit, err := gen.Txn(next.se, &next.rng)
		switch {
		case err != nil && dbms.IsConflict(err):
			res.Aborted++
		case err != nil:
			return res, fmt.Errorf("workload %s: %w", gen.Name(), err)
		case commit == nil:
			finish(next, next.se.Task.Now())
		case commit.Resolved:
			next.se.Task.Clock.AdvanceTo(commit.DoneNS)
			finish(next, next.se.Task.Now())
		default:
			next.pending = commit
		}
	}

	// Makespan: terminals run in parallel up to the core budget.
	var maxNS, totalNS int64
	for i := range terms {
		now := terms[i].se.Task.Now()
		totalNS += now
		if now > maxNS {
			maxNS = now
		}
	}
	windDown(srv, cfg, &res, maxNS, lastPoll, basePoints)
	cores := int64(srv.Kernel.Profile.Cores)
	elapsed := maxNS
	if byCPU := totalNS / cores; byCPU > elapsed {
		elapsed = byCPU
	}
	summarize(&res, latencies, elapsed)
	return res, nil
}

// windDown ends a run for both drivers: it flushes the WAL so no terminal's
// time is left dangling, then runs one last drain at endNS, the latest
// virtual time any session reached. The drain is budgeted for the time
// since the previous poll (at least one period) —
// samples still buffered when the run ends stay undelivered, as they would
// in a real deployment snapshot — unless cfg.FinalDrain asks for everything.
func windDown(srv *dbms.Server, cfg Config, res *Result, endNS, lastPoll, basePoints int64) {
	if dl := srv.WAL.NextDeadline(); dl >= 0 {
		srv.WAL.Tick(dl)
	}
	if srv.TS == nil {
		return
	}
	var opts tscout.DrainOptions
	if !cfg.FinalDrain {
		period := endNS - lastPoll
		if period < cfg.ProcessorPollNS {
			period = cfg.ProcessorPollNS
		}
		opts.Budget = tscout.BudgetForPeriod(period)
	}
	srv.TS.Processor().Drain(opts)
	if cfg.OnDrain != nil {
		cfg.OnDrain(endNS)
	}
	res.Processor = srv.TS.Processor().Stats()
	res.TrainingPoints = res.Processor.Processed - basePoints
}

// summarize fills in the run's elapsed time, rates and latency percentiles.
func summarize(res *Result, latencies []int64, elapsed int64) {
	res.ElapsedNS = elapsed
	if elapsed > 0 {
		res.ThroughputTPS = float64(res.Completed) / (float64(elapsed) / 1e9)
		res.SamplesPerSec = float64(res.TrainingPoints) / (float64(elapsed) / 1e9)
	}
	if len(latencies) == 0 {
		return
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.P50NS = latencies[len(latencies)/2]
	res.P99NS = latencies[len(latencies)*99/100]
	var sum int64
	for _, l := range latencies {
		sum += l
	}
	res.MeanNS = sum / int64(len(latencies))
}
