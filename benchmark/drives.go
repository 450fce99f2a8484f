package main

import (
	_ "embed"
	"fmt"
	"io"
	"strings"
	"time"

	"tscout/internal/archive"
	"tscout/internal/bpf"
	"tscout/internal/dbms"
	"tscout/internal/index"
	"tscout/internal/kernel"
	"tscout/internal/model"
	"tscout/internal/network"
	"tscout/internal/sim"
	"tscout/internal/sql"
	"tscout/internal/tscout"
	"tscout/internal/wal"
	"tscout/internal/workload"
)

//go:embed corpus.sql
var corpusFile string

// corpus returns the statements of corpus.sql.
func corpus() []string {
	var out []string
	for _, line := range strings.Split(corpusFile, "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "--") {
			out = append(out, line)
		}
	}
	return out
}

// drives runs each module's public functions in isolation for a fixed
// number of operations (scaled only by the smoke test) and reports host
// ns/op beside the virtual cost where the module has one. They run after
// the traced loop, in the same process; the archive and model drives replay
// the workload's own points.
type drives struct {
	sp    spec
	scale float64
	seed  int64
	data  []byte    // the workload's archive
	hw    []float64 // its hardware context features
	out   map[string]float64
}

func (d *drives) ops(n int) int {
	if m := int(float64(n) * d.scale); m > 32 {
		return m
	}
	return 32
}

// nsPerOp times n calls of fn on the host clock.
func nsPerOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func runDrives(sp spec, seed int64, scale float64, data []byte, hw []float64) (map[string]float64, error) {
	d := &drives{sp: sp, scale: scale, seed: seed, data: data, hw: hw, out: map[string]float64{}}
	for _, step := range []func() error{
		d.deploy, d.markers, d.rings, d.drain, d.archiveAndModel, d.frontEnd, d.substrates,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return d.out, nil
}

// deploy isolates TScout.Deploy (codegen, verify, optimise, JIT) as the
// difference between building the workload's instrumented and
// uninstrumented server.
func (d *drives) deploy() error {
	build := func(instrument bool) (float64, error) {
		var ms []float64
		for i := 0; i < 7; i++ {
			t0 := time.Now()
			if _, err := dbms.NewServer(d.sp.serverConfig(d.seed, instrument, nil)); err != nil {
				return 0, err
			}
			ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		return median(ms), nil
	}
	on, err := build(true)
	if err != nil {
		return err
	}
	off, err := build(false)
	if err != nil {
		return err
	}
	d.out["tscout.deploy_ms"] = on - off
	return nil
}

// markerRig is one deployed OU with a task to fire it on.
func markerRig(seed int64, compile bool) (*tscout.Marker, *kernel.Task, error) {
	k := kernel.New(sim.LargeHW, seed, 0)
	ts := tscout.New(k, tscout.Config{Seed: seed, OptimizeCollectors: compile, CompileCollectors: compile})
	m, err := ts.RegisterOU(tscout.OUDef{
		ID: 1, Name: "drive_ou", Subsystem: tscout.SubsystemExecutionEngine,
		Features: []string{"a", "b"},
	}, tscout.ResourceSet{CPU: true, Disk: true})
	if err != nil {
		return nil, nil, err
	}
	if err := ts.Deploy(); err != nil {
		return nil, nil, err
	}
	ts.Sampler().SetAllRates(100)
	task := k.NewTask("drive")
	ts.BeginEvent(task, tscout.SubsystemExecutionEngine)
	return m, task, nil
}

// markers fires one BEGIN/END/FEATURES cycle through the deployed
// Collector, optimised and JIT-compiled as the servers deploy it and again
// interpreted, and verifies the FEATURES program.
func (d *drives) markers() error {
	n := d.ops(200_000)
	for _, compile := range []bool{true, false} {
		m, task, err := markerRig(d.seed, compile)
		if err != nil {
			return err
		}
		v0 := task.Now()
		ns := nsPerOp(n, func(int) {
			m.Begin(task)
			m.End(task)
			m.Features(task, 64, 1, 2)
		})
		if compile {
			d.out["tscout.marker_cycle_ns"] = ns
			d.out["tscout.marker_cycle_vns"] = float64(task.Now()-v0) / float64(n)
		} else {
			d.out["bpf.interp_cycle_ns"] = ns
		}
	}

	col, err := tscout.GenerateCollector(tscout.SubsystemExecutionEngine,
		tscout.ResourceSet{CPU: true, Disk: true, Network: true},
		tscout.CollectorConfig{NumCPUs: 1, PerCPUCapacity: 16})
	if err != nil {
		return err
	}
	prog := col.Features.Program()
	var verr error
	d.out["bpf.verify_us"] = nsPerOp(d.ops(2_000), func(int) {
		if err := bpf.Verify(prog, 0); err != nil {
			verr = err
		}
	}) / 1e3
	return verr
}

func drivePayload() []byte {
	return tscout.EncodeSample(1, 1, tscout.Metrics{ElapsedNS: 5}, []uint64{1, 2})
}

// rings submits into and drains from one CPU ring, never overflowing it.
func (d *drives) rings() error {
	const capacity = 4096
	ring := bpf.NewPerCPURing("drive", 1, capacity)
	payload := drivePayload()
	var batch bpf.Batch
	rounds := d.ops(400)
	var submitNS, drainNS float64
	for r := 0; r < rounds; r++ {
		submitNS += nsPerOp(capacity, func(int) { ring.SubmitFrom(0, payload) })
		batch.Reset()
		t0 := time.Now()
		got := ring.DrainBatch(0, &batch, 0)
		drainNS += float64(time.Since(t0).Nanoseconds()) / capacity
		if got != capacity {
			return fmt.Errorf("ring drive: drained %d of %d", got, capacity)
		}
	}
	d.out["bpf.ring_submit_ns"] = submitNS / float64(rounds)
	d.out["bpf.ring_drain_ns"] = drainNS / float64(rounds)
	return nil
}

// discardSink counts what the Processor delivers.
type discardSink struct{ rows int64 }

func (s *discardSink) WriteBatch(pts []tscout.TrainingPoint) error {
	s.rows += int64(len(pts))
	return nil
}
func (s *discardSink) Flush() error { return nil }
func (s *discardSink) Rows() int64  { return s.rows }

// drain drives ring → decode → transform → sink through the Processor with
// a discarding sink: the drain path without the archive writer.
func (d *drives) drain() error {
	k := kernel.New(sim.LargeHW, d.seed, 0)
	sink := &discardSink{}
	ts := tscout.New(k, tscout.Config{Seed: d.seed, DisableProcessorFeedback: true, ProcessorSink: sink})
	if _, err := ts.RegisterOU(tscout.OUDef{
		ID: 1, Name: "drive_ou", Subsystem: tscout.SubsystemExecutionEngine,
		Features: []string{"a", "b"},
	}, tscout.ResourceSet{CPU: true}); err != nil {
		return err
	}
	if err := ts.Deploy(); err != nil {
		return err
	}
	ring := ts.CollectorFor(tscout.SubsystemExecutionEngine).Ring
	p := ts.Processor()
	payload := drivePayload()
	const perRound = 2048
	rounds := d.ops(200)
	var wall float64
	var mallocs uint64
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			ring.Submit(payload)
		}
		cost, _ := measure(nil, func() error {
			p.Drain(tscout.DrainOptions{})
			return nil
		})
		wall += cost.wallS
		mallocs += cost.mallocs
		p.Reset() // drop the in-memory archive so rounds stay alike
	}
	points := float64(rounds * perRound)
	if sink.rows != int64(points) {
		return fmt.Errorf("drain drive: sink got %d of %.0f points", sink.rows, points)
	}
	d.out["tscout.drain_ns_per_point"] = wall * 1e9 / points
	d.out["tscout.drain_allocs_per_point"] = float64(mallocs) / points
	return nil
}

// archiveAndModel replays the workload's own archive: write, scan and
// materialise it, then fit and query the models on its points.
func (d *drives) archiveAndModel() error {
	data := d.data
	r, err := archive.NewReader(data)
	if err != nil {
		return err
	}
	tps, err := r.Points()
	if err != nil {
		return err
	}
	if max := d.ops(200_000); len(tps) > max {
		tps = tps[:max]
	}
	n := float64(len(tps))

	const batch = 256
	cost, err := measure(nil, func() error {
		w := archive.NewWriter(io.Discard)
		for off := 0; off < len(tps); off += batch {
			end := off + batch
			if end > len(tps) {
				end = len(tps)
			}
			if err := w.WriteBatch(tps[off:end]); err != nil {
				return err
			}
		}
		return w.Flush()
	})
	if err != nil {
		return err
	}
	d.out["archive.write_ns_per_point"] = cost.wallS * 1e9 / n
	d.out["archive.write_allocs_per_point"] = float64(cost.mallocs) / n

	rows := float64(r.NumRows())
	const passes = 3
	t0 := time.Now()
	for i := 0; i < passes; i++ {
		fresh, err := archive.NewReader(data) // columns decode once per reader
		if err != nil {
			return err
		}
		var scanErr error
		fresh.Blocks(func(b *archive.Block) bool {
			if _, scanErr = b.RowIndexes(); scanErr == nil {
				_, scanErr = b.Metric(0)
			}
			return scanErr == nil
		})
		if scanErr != nil {
			return scanErr
		}
	}
	d.out["archive.scan_ns_per_row"] = float64(time.Since(t0).Nanoseconds()) / (passes * rows)
	t0 = time.Now()
	for i := 0; i < passes; i++ {
		fresh, err := archive.NewReader(data)
		if err != nil {
			return err
		}
		if _, err := fresh.Points(); err != nil {
			return err
		}
	}
	d.out["archive.points_ns_per_row"] = float64(time.Since(t0).Nanoseconds()) / (passes * rows)

	pts, err := model.FromArchive(r, d.hw)
	if err != nil {
		return err
	}
	pts = model.Sample(pts, d.ops(20_000), d.seed+4)
	t0 = time.Now()
	set, err := model.Train(pts, forest())
	if err != nil {
		return err
	}
	d.out["model.train_ns_per_point"] = float64(time.Since(t0).Nanoseconds()) / float64(len(pts))
	var sink float64
	d.out["model.predict_ns"] = nsPerOp(len(pts), func(i int) { sink += set.Predict(pts[i]) })
	if sink != sink { // NaN
		return fmt.Errorf("model drive: prediction is NaN")
	}

	online := model.NewOnlineSet(windowedForest)
	refits := 0
	t0 = time.Now()
	for lo := 0; lo+replayChunk <= len(pts) && refits < 16; lo += replayChunk {
		online.ObservePrequential(pts[lo:lo+replayChunk], nil)
		if err := online.Refit(); err != nil {
			return err
		}
		refits++
	}
	if refits > 0 {
		d.out["model.online_refit_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(refits)
	}
	return nil
}

// frontEnd drives the wire codec, the parser and statement execution over
// the checked-in corpus, on an uninstrumented server that holds four
// generators' tables side by side (CH-benCHmark queries TPC-C's).
func (d *drives) frontEnd() error {
	stmts := corpus()
	passes := d.ops(400)

	var cerr error
	d.out["network.codec_ns"] = nsPerOp(passes*len(stmts), func(i int) {
		msgs, err := network.Decode(network.EncodeQuery(stmts[i%len(stmts)]))
		if err != nil || len(msgs) != 1 {
			cerr = fmt.Errorf("codec drive: %d messages, %v", len(msgs), err)
		}
	})
	if cerr != nil {
		return cerr
	}
	d.out["sql.parse_ns"] = nsPerOp(passes*len(stmts), func(i int) {
		if _, err := sql.Parse(stmts[i%len(stmts)]); err != nil {
			cerr = fmt.Errorf("parse drive: %q: %w", stmts[i%len(stmts)], err)
		}
	})
	if cerr != nil {
		return cerr
	}

	srv, err := dbms.NewServer(dbms.Config{Seed: d.seed, WAL: groupCommit})
	if err != nil {
		return err
	}
	for _, gen := range []workload.Generator{
		&workload.YCSB{Records: 1000}, &workload.SmallBank{Customers: 1000}, &workload.TATP{Subscribers: 2000},
		&workload.TPCC{Warehouses: 1, CustomersPerDistrict: 20, Items: 200, InitialOrdersPerDistrict: 20},
	} {
		if err := gen.Setup(srv); err != nil {
			return fmt.Errorf("execute drive: load %s: %w", gen.Name(), err)
		}
	}
	se := srv.NewSession()
	passes = d.ops(60)
	v0 := se.Task.Now()
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		if err := se.BeginTxn(); err != nil {
			return err
		}
		for _, q := range stmts {
			if _, err := se.Statement(q); err != nil {
				return fmt.Errorf("execute drive: %q: %w", q, err)
			}
		}
		if err := se.Rollback(); err != nil {
			return err
		}
	}
	ops := float64(passes * len(stmts))
	d.out["dbms.execute_ns"] = float64(time.Since(t0).Nanoseconds()) / ops
	d.out["dbms.execute_vns"] = float64(se.Task.Now()-v0) / ops
	return nil
}

// substrates drives the B+tree, the group-commit WAL, the epoch barrier
// and the admission gate.
func (d *drives) substrates() error {
	n := d.ops(200_000)
	bt := index.NewBTree()
	// Keys arrive in a scattered order (a stride coprime to n), as a
	// loader's would not but a running workload's do.
	stride := int64(7919)
	d.out["index.btree_insert_ns"] = nsPerOp(n, func(i int) {
		bt.Insert(int64(i)*stride%int64(n), int64(i))
	})
	misses := 0
	d.out["index.btree_search_ns"] = nsPerOp(n, func(i int) {
		if len(bt.Search(int64(i)*stride%int64(n))) == 0 {
			misses++
		}
	})
	if misses > 0 {
		return fmt.Errorf("btree drive: %d misses", misses)
	}

	k := kernel.New(sim.LargeHW, d.seed, 0)
	w := wal.New(k, nil, nil, nil, groupCommit)
	commits := make([]*wal.Commit, d.ops(100_000))
	d.out["wal.submit_flush_ns"] = nsPerOp(len(commits), func(i int) {
		now := int64(i) * 10_000 // one commit per 10µs: groups fill before the interval expires
		w.Tick(now)
		commits[i] = w.Submit([]wal.Record{
			{Kind: wal.RecordUpdate, TxnID: uint64(i), Table: "t", Bytes: 96},
			{Kind: wal.RecordCommit, TxnID: uint64(i), Bytes: 16},
		}, now)
	})
	if dl := w.NextDeadline(); dl >= 0 {
		w.Tick(dl)
	}
	var waitNS int64
	for _, c := range commits {
		if !c.Resolved {
			return fmt.Errorf("wal drive: a commit never resolved")
		}
		waitNS += c.DoneNS - c.ArrivalNS
	}
	d.out["wal.commit_vus"] = float64(waitNS) / 1e3 / float64(len(commits))

	const cpus, perEpoch = 8, 256
	ep := sim.NewEpochs(sim.NewCPUTimelines(cpus), 100_000)
	epochs := d.ops(2_000)
	applied := 0
	t0 := time.Now()
	for e := 0; e < epochs; e++ {
		start := ep.Start()
		for i := 0; i < perEpoch; i++ {
			ep.Defer(i%cpus, start+int64((i*37)%100_000), func(int64) { applied++ })
		}
		ep.Barrier()
	}
	if applied != epochs*perEpoch {
		return fmt.Errorf("barrier drive: applied %d of %d events", applied, epochs*perEpoch)
	}
	d.out["sim.barrier_ns_per_event"] = float64(time.Since(t0).Nanoseconds()) / float64(applied)

	// Twice as many clients as slots, so half of the acquisitions queue and
	// are granted by a release.
	const slots = 128
	gate := dbms.NewAdmissionGate(slots, 0)
	tickets := make([]*dbms.Ticket, 2*slots)
	rounds := d.ops(1_000)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		now := int64(r) * 1000
		for i := range tickets {
			tickets[i], _ = gate.Acquire(now)
		}
		for _, t := range tickets {
			gate.Release(t, now+500)
		}
	}
	d.out["dbms.gate_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(tickets))
	if st := gate.Stats(); st.InUse != 0 || st.Waiting != 0 {
		return fmt.Errorf("gate drive: %d in use, %d waiting after the last release", st.InUse, st.Waiting)
	}
	return nil
}
