package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tscout/internal/dbms"
	"tscout/internal/sim"
	"tscout/internal/tscout"
	"tscout/internal/txn"
	"tscout/internal/wal"
)

// runPooledScanning is runPooled as it stood before the terminal sets: every
// admission, barrier and fast-forward decision is found by scanning all
// terminals in index order and asking each ticket whether it has been
// granted. It is kept verbatim as the oracle TestPooledMatchesScanningOracle
// drives beside the set-walking loop.
func runPooledScanning(srv *dbms.Server, gen Generator, cfg Config) (Result, error) {
	poolSize := cfg.PoolSessions
	if poolSize > cfg.Terminals {
		poolSize = cfg.Terminals
	}

	// Contention scales with the workers actually executing, not the
	// terminal census: an idle queued terminal holds no latches.
	srv.Kernel.SetLoadFactor(float64(poolSize))
	defer srv.Kernel.SetLoadFactor(1)

	numCPUs := srv.Kernel.NumCPUs()
	gate := dbms.NewAdmissionGate(poolSize, cfg.AdmissionQueueDepth)
	pool := dbms.NewSessionPool(srv, poolSize)
	tl := sim.NewCPUTimelines(numCPUs)
	// One epoch is one Processor poll period: per-CPU execution proceeds
	// independently within it and cross-CPU events reconcile at the barrier.
	ep := sim.NewEpochs(tl, cfg.ProcessorPollNS)

	terms := make([]*pooledTerminal, cfg.Terminals)
	for i := range terms {
		terms[i] = &pooledTerminal{
			idx: i,
			rng: rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
		}
	}

	var (
		res         Result
		latencies   []int64
		lastPoll    int64
		basePoints  int64
		maxDoneNS   int64
		started     int
		outstanding int // tickets issued for txns not yet started
		runq        = make([][]*pooledTerminal, numCPUs)
	)
	if srv.TS != nil {
		basePoints = srv.TS.Processor().Stats().Processed
	}

	srv.WAL.SetDeferMode(true)
	defer srv.WAL.SetDeferMode(false)

	// finishRelease completes a terminal's transaction at virtual time
	// atNS: the latency is recorded, the session returns to the pool, and
	// the slot release grants the FIFO head. Runs only inside a barrier.
	finishRelease := func(t *pooledTerminal, atNS int64, completed bool) {
		if completed {
			latencies = append(latencies, atNS-t.startNS)
			res.Completed++
		}
		if atNS > maxDoneNS {
			maxDoneNS = atNS
		}
		pool.Put(t.se)
		gate.Release(t.ticket, atNS)
		t.se = nil
		t.ticket = nil
		t.readyNS = atNS
	}

	claim := func(t *pooledTerminal) {
		se := pool.Get()
		if se == nil {
			// Unreachable: gate slots == pool size, so every grant has a
			// free session.
			panic("workload: admission granted with no pooled session free")
		}
		se.ExternalCollect = cfg.ExternalCollect
		t.se = se
		if g := t.ticket.GrantNS(); g > t.readyNS {
			t.readyNS = g
		}
		cpu := se.Task.CPU()
		runq[cpu] = append(runq[cpu], t)
	}

	for res.Completed+res.Aborted < cfg.Transactions {
		epochStart, epochEnd := ep.Start(), ep.End()

		// --- Admission (epoch start) ----------------------------------
		// First bind sessions to terminals granted at the previous
		// barrier, then let idle terminals ask for slots — both in
		// terminal index order.
		for _, t := range terms {
			if t.se == nil && t.ticket != nil && t.ticket.Granted() {
				claim(t)
			}
		}
		for _, t := range terms {
			if t.se != nil || t.ticket != nil || t.readyNS >= epochEnd {
				continue
			}
			if started+outstanding >= cfg.Transactions {
				break
			}
			at := t.readyNS
			if at < epochStart {
				at = epochStart
			}
			tk, outcome := gate.Acquire(at)
			switch outcome {
			case dbms.Granted:
				t.ticket = tk
				outstanding++
				claim(t)
			case dbms.Queued:
				t.ticket = tk
				outstanding++
			case dbms.Rejected:
				// Refused connections back off a full epoch before
				// retrying.
				t.readyNS = epochEnd
			}
		}

		// --- Per-CPU execution ----------------------------------------
		ranAny := false
		for c := 0; c < numCPUs; c++ {
			for len(runq[c]) > 0 && tl.Now(c) < epochEnd {
				t := runq[c][0]
				runq[c] = runq[c][1:]
				outstanding--
				started++
				ranAny = true
				task := t.se.Task
				begin := tl.Now(c)
				if t.readyNS > begin {
					begin = t.readyNS
				}
				task.Clock.AdvanceTo(begin)
				t.startNS = task.Now()
				for i := 0; i < contextSwitchesPerTxn; i++ {
					task.ContextSwitch()
				}
				commit, err := gen.Txn(t.se, t.rng)
				switch {
				case err != nil && dbms.IsConflict(err):
					res.Aborted++
					tt := t
					ep.Defer(c, task.Now(), func(at int64) { finishRelease(tt, at, false) })
				case err != nil:
					return res, fmt.Errorf("workload %s: %w", gen.Name(), err)
				case commit == nil:
					tt := t
					ep.Defer(c, task.Now(), func(at int64) { finishRelease(tt, at, true) })
				default:
					// Deferred-mode submissions never resolve inline; the
					// terminal holds its slot until a barrier observes
					// durability.
					t.pending = commit
				}
				tl.AdvanceTo(c, task.Now())
			}
		}

		// --- Barrier ---------------------------------------------------
		// Replay the epoch's staged WAL submissions in merged order (this
		// fires group-size flushes), then the interval flush, then turn
		// every observed durability into a deferred completion event.
		srv.WAL.CommitStaged()
		srv.WAL.Tick(epochEnd)
		for _, t := range terms {
			if t.pending == nil || !t.pending.Resolved {
				continue
			}
			done := t.pending.DoneNS
			t.pending = nil
			tt := t
			ep.Defer(tt.se.Task.CPU(), done, func(at int64) {
				tt.se.Task.Clock.AdvanceTo(at)
				finishRelease(tt, at, true)
			})
		}
		applied := ep.Barrier()
		res.Epochs = ep.Index()
		res.BarrierEvents = ep.Applied()

		// The Processor drains on the poll schedule, one period's budget
		// per wakeup (no catch-up credit), exactly as in the legacy
		// driver.
		if srv.TS != nil && epochEnd-lastPoll >= cfg.ProcessorPollNS {
			srv.TS.Processor().Drain(tscout.DrainOptions{Budget: tscout.BudgetForPeriod(cfg.ProcessorPollNS)})
			lastPoll = epochEnd
			if cfg.OnDrain != nil {
				cfg.OnDrain(epochEnd)
			}
		}

		// --- Fast-forward ---------------------------------------------
		// Find the next schedulable event: the WAL's flush deadline, the
		// clock of any CPU with queued work (commit durabilities
		// fast-forward session clocks and the timeline follows, stranding
		// the runqueue until the window catches up), a granted-but-
		// unclaimed terminal's grant time, or — while budget remains — an
		// idle terminal's ready time. Skipping the window straight there
		// costs O(1) epochs per event instead of a fixed-length march,
		// which is what keeps wide topologies (few sessions per CPU,
		// large clock leaps) from burning empty catch-up epochs.
		next := int64(-1)
		observe := func(v int64) {
			if next < 0 || v < next {
				next = v
			}
		}
		if dl := srv.WAL.NextDeadline(); dl >= 0 {
			observe(dl)
		}
		for c := 0; c < numCPUs; c++ {
			if len(runq[c]) > 0 {
				observe(tl.Now(c))
			}
		}
		for _, t := range terms {
			switch {
			case t.se == nil && t.ticket != nil && t.ticket.Granted():
				observe(t.ticket.GrantNS())
			case t.se == nil && t.ticket == nil && t.pending == nil &&
				started+outstanding < cfg.Transactions:
				observe(t.readyNS)
			}
		}
		if next < 0 {
			if !ranAny && applied == 0 {
				var pending, queued, granted, idle int
				for _, t := range terms {
					switch {
					case t.pending != nil:
						pending++
					case t.ticket != nil && t.ticket.Granted():
						granted++
					case t.ticket != nil:
						queued++
					default:
						idle++
					}
				}
				return res, fmt.Errorf(
					"workload: deadlock — terminals pending=%d granted=%d queued=%d idle=%d, staged=%d, started=%d outstanding=%d, gate=%+v",
					pending, granted, queued, idle, srv.WAL.StagedCount(), started, outstanding, gate.Stats())
			}
		} else if next >= epochEnd {
			ep.SkipTo(next)
		}
	}

	// --- Wind down ----------------------------------------------------
	// Replay any straggler submissions, then flush the WAL dry and run the
	// final drain with the legacy driver's semantics.
	srv.WAL.CommitStaged()
	srv.WAL.SetDeferMode(false)
	elapsed := tl.Makespan()
	if maxDoneNS > elapsed {
		elapsed = maxDoneNS
	}
	windDown(srv, cfg, &res, elapsed, lastPoll, basePoints)
	res.Admission = gate.Stats()
	summarize(&res, latencies, elapsed)
	return res, nil
}

// abortingGen rolls back every seventh transaction after one statement and
// reports a write conflict, so the abort arm of finishRelease runs. No real
// workload aborts under these drivers: they never interleave two
// transactions' statements.
type abortingGen struct {
	Generator
	calls int
}

func (g *abortingGen) Txn(se *dbms.Session, rng *rand.Rand) (*wal.Commit, error) {
	g.calls++
	if g.calls%7 != 0 {
		return g.Generator.Txn(se, rng)
	}
	if err := se.BeginTxn(); err != nil {
		return nil, err
	}
	if _, err := se.Statement("UPDATE checking SET bal = bal + $1 WHERE custid = $2",
		fv(1), iv(int64(rng.Intn(200)))); err != nil {
		return nil, err
	}
	if err := se.Rollback(); err != nil {
		return nil, err
	}
	return nil, txn.ErrWriteConflict
}

// TestPooledMatchesScanningOracle drives two fresh servers from one seed,
// one with the set-walking runPooled and one with the scanning loop it
// replaced, and requires the same run from both: every Result field (latency
// percentiles, the gate's census, epochs, barrier events, the Processor's
// telemetry), the archive, and the kernel's per-CPU noise-draw census.
func TestPooledMatchesScanningOracle(t *testing.T) {
	type driver func(*dbms.Server, Generator, Config) (Result, error)
	scenarios := []struct {
		name                         string
		terminals, pool, depth, txns int
		aborts                       bool
		check                        func(Result) bool
	}{
		{name: "terminals>>pool", terminals: 400, pool: 16, txns: 420,
			check: func(r Result) bool { return r.Admission.Queued > 0 }},
		{name: "terminals<pool", terminals: 12, pool: 48, txns: 80,
			check: func(r Result) bool { return r.Admission.Queued == 0 }},
		{name: "bounded-queue", terminals: 400, pool: 16, depth: 8, txns: 160,
			check: func(r Result) bool { return r.Admission.Rejected > 0 }},
		// The budget runs out before the first epoch's acquire walk has
		// reached every terminal.
		{name: "budget<terminals", terminals: 400, pool: 16, txns: 64,
			check: func(r Result) bool { return r.Admission.Admitted == 64 }},
		{name: "aborts", terminals: 100, pool: 16, txns: 120, aborts: true,
			check: func(r Result) bool { return r.Aborted > 0 }},
	}
	for _, numCPUs := range []int{1, 8, 32} {
		for _, par := range []int{1, 2} {
			for _, sc := range scenarios {
				t.Run(fmt.Sprintf("cpus=%d/threads=%d/%s", numCPUs, par, sc.name), func(t *testing.T) {
					t.Parallel()
					run := func(drive driver) (Result, uint64, []uint64) {
						arch := newTestArchive(0)
						srv, sb := scaleServer(t, dbms.Config{
							Seed: 42, NoiseSigma: 0.03, Instrument: true,
							NumCPUs: numCPUs, ProcessorParallelism: par, Sink: arch.w,
							WAL: wal.Config{GroupSize: 16, FlushIntervalNS: 200_000},
						}, 200)
						var gen Generator = sb
						if sc.aborts {
							gen = &abortingGen{Generator: sb}
						}
						res, err := drive(srv, gen, Config{
							Terminals: sc.terminals, Transactions: sc.txns, Seed: 42,
							PoolSessions: sc.pool, AdmissionQueueDepth: sc.depth,
						}.withDefaults())
						if err != nil {
							t.Fatalf("run: %v", err)
						}
						return res, goldenFingerprint(res, arch.points(t)), srv.Kernel.NoiseDraws()
					}
					got, gotFP, gotDraws := run(runPooled)
					want, wantFP, wantDraws := run(runPooledScanning)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("results diverged from the scanning loop:\n%+v\n%+v", got, want)
					}
					if gotFP != wantFP {
						t.Fatalf("archive fingerprint %#x, scanning loop %#x", gotFP, wantFP)
					}
					if !reflect.DeepEqual(gotDraws, wantDraws) {
						t.Fatalf("noise-draw census diverged:\n%v\n%v", gotDraws, wantDraws)
					}
					if got.Completed+got.Aborted != sc.txns {
						t.Fatalf("budget: completed %d + aborted %d != %d", got.Completed, got.Aborted, sc.txns)
					}
					if !sc.check(got) {
						t.Fatalf("the scenario did not reach the path it is here for: %+v", got)
					}
				})
			}
		}
	}
}
