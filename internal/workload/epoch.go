package workload

import (
	"fmt"
	"math/bits"
	"math/rand"

	"tscout/internal/dbms"
	"tscout/internal/sim"
	"tscout/internal/tscout"
	"tscout/internal/wal"
)

// The pooled epoch driver is the multi-core counterpart of the legacy
// single-clock driver: thousands of terminals multiplex onto a bounded
// pool of DBMS sessions (pinned across the simulated CPUs) behind an
// admission gate, and virtual time advances per CPU within fixed epochs.
//
// Determinism argument. The driver is one goroutine; what makes the
// schedule a pure function of the seed at any CPU count is that no
// decision ever consults wall-clock state or map iteration order:
//
//   - Admission walks the idle terminals in index order; grants hand
//     slots to waiters in FIFO order.
//   - Each CPU executes its runqueue in admission order against its own
//     timeline; no step reads another CPU's clock.
//   - WAL submissions during the epoch are staged (deferred mode), then
//     replayed at the barrier in (ArrivalNS, cpu, seq) order, so flush
//     batching is independent of the order the CPUs were driven in.
//   - Terminal completions (commit durability, read-only finishes,
//     aborts) are deferred as epoch events and applied at the barrier in
//     (AtNS, CPU, seq) order, so slot releases — and therefore which
//     waiter is granted when — follow virtual time, not execution order.
//
// Every cross-CPU interaction thus funnels through one of two sorted
// merges, both keyed only by virtual timestamps the per-CPU schedules
// produced. NumCPUs=1 collapses to a single timeline with the same merge
// rules, and any NumCPUs gives bit-identical archives for the same seed.
//
// The driver never asks a terminal what state it is in. It keeps three sets
// of terminal indexes, each changed at the one or two places a terminal
// enters or leaves that state, and every per-epoch walk is an ascending walk
// of the set its predicate describes — the calls a scan of all terminals
// would make, in the same order, at a cost of the epoch's state changes
// rather than the terminal census:
//
//   - idle: no session and no ticket. Everyone starts here; finishRelease
//     returns a terminal to it; Acquire takes it out. The gate's queue is
//     unbounded (NewAdmissionGate(poolSize, 0)), so Acquire grants a slot
//     or queues for one and never rejects.
//   - granted: handed a slot by some other terminal's Release (which
//     returns the ticket it granted; Ticket.Owner names the terminal) and
//     not yet bound to a session. claim takes it out at the next epoch start.
//   - pending: waiting on a commit's durability. Entered when a transaction
//     returns a commit handle, left when a barrier sees it resolved.
//
// A queued terminal is in none of them: nothing happens to it until a
// Release grants it.

// termSet is a set of terminal indexes, one bit each, walked in ascending
// order with next.
type termSet []uint64

func newTermSet(n int) termSet { return make(termSet, (n+63)/64) }

func (s termSet) add(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }
func (s termSet) remove(i int)   { s[i>>6] &^= 1 << (uint(i) & 63) }
func (s termSet) has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// next returns the smallest member >= i, or -1 when there is none. The
// walk `for i := s.next(0); i >= 0; i = s.next(i + 1)` visits members in
// ascending order and lets the body remove the member it is visiting.
func (s termSet) next(i int) int {
	w := i >> 6
	if w >= len(s) {
		return -1
	}
	word := s[w] &^ (1<<(uint(i)&63) - 1)
	for word == 0 {
		if w++; w == len(s) {
			return -1
		}
		word = s[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

type pooledTerminal struct {
	idx int
	// src is the terminal's generator stream, rng math/rand's method set
	// over it: both live in the terms slice, so a terminal's stream is no
	// heap object of its own.
	src     sim.PCG
	rng     rand.Rand
	readyNS int64
	ticket  *dbms.Ticket
	se      *dbms.Session
	pending *wal.Commit
	startNS int64
	// ended is how the transaction the terminal last deferred ended, and
	// release, runPooled's one finishRelease, what completes it when a
	// barrier fires the terminal. A terminal has at most one event
	// deferred at a time.
	ended   txnEnd
	release func(t *pooledTerminal, atNS int64, completed bool)
}

// Fire completes the transaction the terminal deferred (a sim.Event): a
// durable commit first advances the session's clock to its durability.
func (t *pooledTerminal) Fire(atNS int64) {
	if t.ended == endedDurable {
		t.se.Task.Clock.AdvanceTo(atNS)
	}
	t.release(t, atNS, t.ended != endedAborted)
}

// txnEnd is how a pooled terminal's transaction ended.
type txnEnd uint8

const (
	endedReadOnly txnEnd = iota // finished with no commit to wait for
	endedAborted                // lost a write conflict
	endedDurable                // committed, and a barrier saw it durable
)

// runPooled drives the generator with the pooled multi-core epoch engine.
func runPooled(srv *dbms.Server, gen Generator, cfg Config) (Result, error) {
	poolSize := cfg.PoolSessions
	if poolSize > cfg.Terminals {
		poolSize = cfg.Terminals
	}

	// Contention scales with the workers actually executing, not the
	// terminal census: an idle queued terminal holds no latches.
	srv.Kernel.SetLoadFactor(float64(poolSize))
	defer srv.Kernel.SetLoadFactor(1)

	numCPUs := srv.Kernel.NumCPUs()
	gate := dbms.NewAdmissionGate(poolSize, 0)
	pool := dbms.NewSessionPool(srv, poolSize)
	tl := sim.NewCPUTimelines(numCPUs)
	// One epoch is one Processor poll period: per-CPU execution proceeds
	// independently within it and cross-CPU events reconcile at the barrier.
	ep := sim.NewEpochs(tl, cfg.ProcessorPollNS)

	terms := make([]pooledTerminal, cfg.Terminals)
	idle := newTermSet(cfg.Terminals)
	granted := newTermSet(cfg.Terminals)
	pending := newTermSet(cfg.Terminals)

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
		if next := gate.Release(t.ticket, atNS); next != nil {
			granted.add(int(next.Owner))
		}
		t.se = nil
		t.ticket = nil
		t.readyNS = atNS
		idle.add(t.idx)
	}

	for i := range terms {
		t := &terms[i]
		t.idx = i
		t.src.Reseed(cfg.Seed, uint64(i))
		t.rng = *rand.New(&t.src)
		t.release = finishRelease
		idle.add(i)
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
		granted.remove(t.idx)
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
		for i := granted.next(0); i >= 0; i = granted.next(i + 1) {
			claim(&terms[i])
		}
		for i := idle.next(0); i >= 0; i = idle.next(i + 1) {
			t := &terms[i]
			if t.readyNS >= epochEnd {
				continue
			}
			if started+outstanding >= cfg.Transactions {
				break
			}
			at := t.readyNS
			if at < epochStart {
				at = epochStart
			}
			// The gate's queue is unbounded, so a terminal is either
			// granted a slot or queued for one, never refused.
			tk, outcome := gate.Acquire(at)
			tk.Owner = int32(i)
			t.ticket = tk
			outstanding++
			idle.remove(i)
			if outcome == dbms.Granted {
				claim(t)
			}
		}

		// --- Per-CPU execution ----------------------------------------
		ranAny := false
		for c := 0; c < numCPUs; c++ {
			// Nothing appends to a runqueue while the CPUs run, so the
			// walk keeps its position in q and the terminals it did not
			// reach move to the front of the same array afterwards.
			q, ran := runq[c], 0
			for ran < len(q) && tl.Now(c) < epochEnd {
				t := q[ran]
				ran++
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
				commit, err := gen.Txn(t.se, &t.rng)
				switch {
				case err != nil && dbms.IsConflict(err):
					res.Aborted++
					t.ended = endedAborted
					ep.DeferEvent(c, task.Now(), t)
				case err != nil:
					return res, fmt.Errorf("workload %s: %w", gen.Name(), err)
				case commit == nil:
					t.ended = endedReadOnly
					ep.DeferEvent(c, task.Now(), t)
				default:
					// Deferred-mode submissions never resolve inline; the
					// terminal holds its slot until a barrier observes
					// durability.
					t.pending = commit
					pending.add(t.idx)
				}
				tl.AdvanceTo(c, task.Now())
			}
			n := copy(q, q[ran:])
			clear(q[n:])
			runq[c] = q[:n]
		}

		// --- Barrier ---------------------------------------------------
		// Replay the epoch's staged WAL submissions in merged order (this
		// fires group-size flushes), then the interval flush, then turn
		// every observed durability into a deferred completion event.
		srv.WAL.CommitStaged()
		srv.WAL.Tick(epochEnd)
		for i := pending.next(0); i >= 0; i = pending.next(i + 1) {
			tt := &terms[i]
			if !tt.pending.Resolved {
				continue
			}
			done := tt.pending.DoneNS
			tt.pending = nil
			pending.remove(i)
			tt.ended = endedDurable
			ep.DeferEvent(tt.se.Task.CPU(), done, tt)
		}
		applied := ep.Barrier()
		res.Epochs = ep.Index()
		res.BarrierEvents = ep.Applied()

		// The Processor drains on the poll schedule, one period's budget
		// per wakeup (no catch-up credit), checked at every epoch end. The
		// legacy driver checks only at the clock of the next terminal to
		// start, a different schedule: on the canonical TPC-C run it wakes
		// 108 times in 39.8 virtual ms, drops 894 samples and fires §3.2
		// feedback 13 times, ending at 20 % (execution engine) and 25 %
		// (networking) sampling; this driver wakes 407 times in 112.8 ms,
		// drops none and stays at 100 % (testdata/golden.txt against
		// testdata/golden_pooled.txt).
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
		for i := granted.next(0); i >= 0; i = granted.next(i + 1) {
			observe(terms[i].ticket.GrantNS())
		}
		if started+outstanding < cfg.Transactions {
			for i := idle.next(0); i >= 0; i = idle.next(i + 1) {
				observe(terms[i].readyNS)
			}
		}
		if next < 0 {
			if !ranAny && applied == 0 {
				// A ticket holds a slot once its terminal has a session or
				// a Release has granted it.
				var nPending, nGranted, nQueued, nIdle int
				for i := range terms {
					t := &terms[i]
					switch {
					case t.pending != nil:
						nPending++
					case t.ticket != nil && (t.se != nil || granted.has(t.idx)):
						nGranted++
					case t.ticket != nil:
						nQueued++
					default:
						nIdle++
					}
				}
				return res, fmt.Errorf(
					"workload: deadlock — terminals pending=%d granted=%d queued=%d idle=%d, staged=%d, started=%d outstanding=%d, gate=%+v",
					nPending, nGranted, nQueued, nIdle, srv.WAL.StagedCount(), started, outstanding, gate.Stats())
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
