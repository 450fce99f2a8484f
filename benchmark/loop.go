package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"syscall"
	"time"

	"tscout/internal/archive"
	"tscout/internal/autopilot"
	"tscout/internal/dbms"
	"tscout/internal/sim"
	"tscout/internal/tscout"
	"tscout/internal/workload"
)

// setupRepeats is how many times phase 0 runs at full scale; setup_s is the
// median. Set-up is ~50 ms, so a single reading is mostly cold-start noise.
// The last repetition's servers are the ones the passes use.
const setupRepeats = 15

// hostCost is what one phase cost the host.
type hostCost struct {
	wallS   float64
	cpuS    float64 // process user+sys
	speed   float64 // the box's mean speed over the phase, 1 being the usual
	mallocs uint64
}

// steadyS and steadyCPUS are the phase's seconds with the box's speed taken
// out (see speed.go): what the phase would have cost on a usual day.
func (c hostCost) steadyS() float64    { return c.wallS * c.speed }
func (c hostCost) steadyCPUS() float64 { return c.cpuS * c.speed }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measure runs fn and reports what it cost, less the speedometer's probes
// inside it; without a speedometer the speed reads 1.
func measure(meter *speedometer, fn func() error) (hostCost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if meter != nil {
		meter.probe()
	}
	cpu0, t0 := cpuSeconds(), time.Now()
	err := fn()
	t1 := time.Now()
	cost := hostCost{wallS: t1.Sub(t0).Seconds(), cpuS: cpuSeconds() - cpu0, speed: 1}
	runtime.ReadMemStats(&after)
	cost.mallocs = after.Mallocs - before.Mallocs
	if meter != nil {
		meter.probe()
		var probeS float64
		cost.speed, probeS = meter.over(t0, t1)
		cost.wallS -= probeS
		cost.cpuS -= probeS // a probe is pure CPU
	}
	return cost, err
}

// loopResult is everything one full loop observed; metrics.go turns it
// into the named metrics and gate.go into the correctness verdict.
type loopResult struct {
	setups []hostCost

	off, on         workload.Result
	offCost, onCost hostCost
	learnCost       hostCost
	liveHeapMB      float64

	// Collect-pass state read once the pass and the final Flush are done.
	writerRows                    int64
	walFlushes, walRecs, walBytes int64
	noiseDraws                    uint64
	archiveData                   []byte
	archiveDigest                 uint64 // FNV-64a of archiveData

	learn learnResult
	hw    []float64
}

func hwContext(p sim.HardwareProfile) []float64 { return []float64{p.ClockGHz * 1000} }

// servers is phase 0's product: the uninstrumented and the instrumented
// server, both loaded, plus the archive the instrumented one drains into.
type servers struct {
	off, on *dbms.Server
	genOff  workload.Generator
	genOn   workload.Generator
	buf     *bytes.Buffer
	w       *archive.Writer
}

func (sp spec) serverConfig(seed int64, instrument bool, sink tscout.Sink) dbms.Config {
	return dbms.Config{
		Profile: sim.LargeHW, Seed: seed, NoiseSigma: 0.03,
		Instrument: instrument, Mode: tscout.KernelContinuous, DisableFeedback: true,
		ProcessorParallelism: sp.drainThreads, NumCPUs: sp.numCPUs,
		Sink: sink, WAL: sp.wal,
	}
}

// setup is phase 0: both servers built (the instrumented one deploys
// TScout: codegen, verify, optimise, JIT) and both data sets loaded.
func (sp spec) setup(seed int64, tr *tracer) (*servers, error) {
	s := &servers{buf: &bytes.Buffer{}, genOff: sp.gen(), genOn: sp.gen()}
	var dst io.Writer = s.buf
	if tr != nil {
		dst = tracedWriter{dst, tr}
	}
	s.w = archive.NewWriterSize(dst, sp.segmentRows)
	var sink tscout.Sink = s.w
	if tr != nil {
		sink = tracedSink{s.w, tr}
	}
	var err error
	if s.off, err = dbms.NewServer(sp.serverConfig(seed, false, nil)); err != nil {
		return nil, err
	}
	if err = s.genOff.Setup(s.off); err != nil {
		return nil, err
	}
	if s.on, err = dbms.NewServer(sp.serverConfig(seed, true, sink)); err != nil {
		return nil, err
	}
	if err = s.genOn.Setup(s.on); err != nil {
		return nil, err
	}
	s.on.TS.Sampler().SetAllRates(100)
	return s, nil
}

func (sp spec) runConfig(seed int64, scale float64) workload.Config {
	txns := int(float64(sp.txns) * scale)
	if txns < 100 {
		txns = 100
	}
	return workload.Config{
		Terminals: sp.terminals, Transactions: txns, Seed: seed,
		ProcessorPollNS: sp.pollNS, PoolSessions: sp.poolSessions, FinalDrain: true,
	}
}

// runLoop is one full loop of the workload: setup, collection-off pass,
// instrumented collect pass into the archive, learn pass from the reopened
// archive. With a tracer the wrappers are installed around the interfaces
// the benchmark owns; virtual behaviour is the same either way.
func runLoop(sp spec, seed int64, scale float64, meter *speedometer, tr *tracer, prof *profiler) (*loopResult, error) {
	res := &loopResult{hw: hwContext(sim.LargeHW)}

	repeats := setupRepeats
	if scale < 1 {
		repeats = 3
	}
	var srv *servers
	for i := 0; i < repeats; i++ {
		span := tr.begin("setup")
		cost, err := measure(meter, func() (err error) {
			srv, err = sp.setup(seed, tr)
			return err
		})
		tr.end(span)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setups = append(res.setups, cost)
	}

	cfg := sp.runConfig(seed, scale)

	// Phase 1: off pass. The uninstrumented server is dropped afterwards so
	// it does not count towards the collect pass's live heap.
	span := tr.begin("off")
	stop := prof.start("off")
	var err error
	res.offCost, err = measure(meter, func() (err error) {
		res.off, err = workload.Run(srv.off, probedGen{srv.genOff, meter}, cfg)
		return err
	})
	stop()
	tr.end(span)
	if err != nil {
		return nil, fmt.Errorf("off pass: %w", err)
	}
	srv.off, srv.genOff = nil, nil

	// Phase 2: collect pass, including the archive's final Flush.
	gen := srv.genOn
	if tr != nil {
		gen = tracedGen{gen, tr}
	}
	gen = probedGen{gen, meter} // outside the txn spans
	if sp.autopilot {
		ctrl := autopilot.New(srv.on.TS, srv.w, autopilot.Config{
			HWContext: res.hw, MinSamples: 100, NewModel: windowedForest,
		})
		cfg.OnDrain = ctrl.Hook()
		if tr != nil {
			cfg.OnDrain = tracedHook(tr, cfg.OnDrain)
		}
	}
	runtime.GC() // start every collect pass from the same heap state
	span = tr.begin("collect")
	stop = prof.start("collect")
	res.onCost, err = measure(meter, func() (err error) {
		if res.on, err = workload.Run(srv.on, gen, cfg); err != nil {
			return err
		}
		fl := tr.begin("archive.flush")
		err = srv.w.Flush()
		tr.end(fl)
		return err
	})
	stop()
	tr.end(span)
	if err != nil {
		return nil, fmt.Errorf("collect pass: %w", err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)

	res.writerRows = srv.w.Rows()
	res.walFlushes, res.walRecs, res.walBytes = srv.on.WAL.Stats()
	for _, d := range srv.on.Kernel.NoiseDraws() {
		res.noiseDraws += d
	}
	res.archiveData = srv.buf.Bytes()
	h := fnv.New64a()
	h.Write(res.archiveData)
	res.archiveDigest = h.Sum64()
	runtime.KeepAlive(srv.on)
	srv.on, srv.genOn = nil, nil

	// Phase 3: learn pass. Not steadied: a fit gives the speedometer no
	// place to tick, and the few probes between fits made its CPU seconds
	// spread wider, not narrower.
	span = tr.begin("learn")
	stop = prof.start("learn")
	res.learnCost, err = measure(nil, func() (err error) {
		res.learn, err = learn(sp, seed, res.archiveData, res.hw, tr)
		return err
	})
	stop()
	tr.end(span)
	if err != nil {
		return nil, fmt.Errorf("learn pass: %w", err)
	}
	return res, nil
}
