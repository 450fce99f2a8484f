package main

import (
	"tscout/internal/tscout"
)

// metricDef names one metric. BENCHMARK.json carries the same names, units
// and directions (smoke_test.go holds the two lists together) and, for the
// end-to-end metrics, the regression bound.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// virtual metrics are read off the simulated clock or the archive: a
	// pure function of the seed, bit-equal across repeats of one commit.
	virtual bool
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", false},
	{"host_cpu_us_per_txn", "us", "lower", false},
	{"host_off_cpu_us_per_txn", "us", "lower", false},
	{"host_learn_cpu_us_per_point", "us", "lower", false},
	{"host_allocs_per_txn", "count", "lower", false},
	{"host_live_heap_mb", "MB", "lower", false},
	{"v_txn_per_s", "1/s", "higher", true},
	{"v_on_off_tput_pct", "%", "higher", true},
	{"v_p99_us", "us", "lower", true},
	{"v_samples_per_s", "1/s", "higher", true},
	{"model_err_pct", "%", "lower", true},
	{"archive_bytes_per_point", "B", "lower", true},
}

// endToEndValues computes the end-to-end metrics. The host's time is counted
// in process CPU seconds (user+sys, every thread), not wall seconds: on this
// box a pass's wall time spreads twice as wide run to run, and with one
// driver goroutine and no I/O the two tell the same story. CPU seconds are
// steady seconds (speed.go). The wall-clock rates are per-layer metrics.
func endToEndValues(r *loopResult) map[string]float64 {
	txns := float64(r.on.Completed)
	var setups []float64
	for _, c := range r.setups {
		setups = append(setups, c.steadyS())
	}
	return map[string]float64{
		"setup_s":                     median(setups),
		"host_cpu_us_per_txn":         r.onCost.steadyCPUS() * 1e6 / txns,
		"host_off_cpu_us_per_txn":     r.offCost.steadyCPUS() * 1e6 / float64(r.off.Completed),
		"host_learn_cpu_us_per_point": r.learnCost.steadyCPUS() * 1e6 / float64(r.learn.fitPoints),
		"host_allocs_per_txn":         float64(r.onCost.mallocs) / txns,
		"host_live_heap_mb":           r.liveHeapMB,
		"v_txn_per_s":                 r.on.ThroughputTPS,
		// Collection overhead is 100 minus this; the retained share is
		// reported because the overhead itself is near 0 on tpcc_autopilot
		// and a bound that is a share of the median means nothing there.
		"v_on_off_tput_pct":       r.on.ThroughputTPS / r.off.ThroughputTPS * 100,
		"v_p99_us":                float64(r.on.P99NS) / 1e3,
		"v_samples_per_s":         r.on.SamplesPerSec,
		"model_err_pct":           r.learn.modelErrPct,
		"archive_bytes_per_point": float64(len(r.archiveData)) / float64(r.learn.rows),
	}
}

// perLayer lists the single-layer metrics; the part of a name before the
// first dot is the module under internal/ (trace is the benchmark's own
// tracer). Counters are exact and read after the untraced loop; spans come
// from the traced loop's wrappers; the rest are the isolated drives.
var perLayer = []metricDef{
	// Wall-clock rates of the three passes, as measured (not steadied).
	{"workload.collect_txn_per_s", "1/s", "higher", false},
	{"workload.off_txn_per_s", "1/s", "higher", false},
	{"model.learn_points_per_s", "1/s", "higher", false},
	// Counters.
	{"workload.completed", "count", "higher", true},
	{"workload.aborted", "count", "lower", true},
	{"sim.epochs", "count", "lower", true},
	{"sim.barrier_events", "count", "lower", true},
	{"dbms.gate_admitted", "count", "higher", true},
	{"dbms.gate_queued", "count", "lower", true},
	{"dbms.gate_rejected", "count", "lower", true},
	{"dbms.gate_wait_vus_mean", "us", "lower", true},
	{"kernel.noise_draws", "count", "lower", true},
	{"wal.flushes", "count", "lower", true},
	{"wal.records", "count", "higher", true},
	{"wal.bytes", "B", "lower", true},
	{"bpf.jit_runs", "count", "higher", true},
	{"bpf.interp_runs", "count", "lower", true},
	{"bpf.ring_submitted", "count", "higher", true},
	{"bpf.ring_dropped", "count", "lower", true},
	{"bpf.ring_skew", "ratio", "lower", true},
	{"tscout.polls", "count", "lower", true},
	{"tscout.drained", "count", "higher", true},
	{"tscout.points", "count", "higher", true},
	{"tscout.batch_mean", "count", "higher", true},
	{"tscout.decode_errors", "count", "lower", true},
	{"tscout.corrupt_discards", "count", "lower", true},
	{"tscout.sink_retries", "count", "lower", true},
	{"tscout.flush_queue_drops", "count", "lower", true},
	{"tscout.insns_saved", "count", "higher", true},
	{"tscout.compiled_programs", "count", "higher", true},
	{"tscout.ou_vns_mean.execution-engine", "ns", "lower", true},
	{"tscout.ou_vns_mean.networking", "ns", "lower", true},
	{"tscout.ou_vns_mean.log-serializer", "ns", "lower", true},
	{"tscout.ou_vns_mean.disk-writer", "ns", "lower", true},
	{"archive.segments", "count", "lower", true},
	{"archive.blocks", "count", "lower", true},
	{"archive.bytes", "B", "lower", true},
	{"archive.rows", "count", "higher", true},
	{"model.err_by_template_us", "us", "lower", true},
	{"autopilot.epochs", "count", "lower", true},
	{"autopilot.refits", "count", "lower", true},
	{"autopilot.points_consumed", "count", "higher", true},
	{"autopilot.drift_events", "count", "lower", true},
	{"autopilot.final_rate_min", "%", "lower", true},
	// Spans.
	{"workload.txn_s", "s", "lower", false},
	{"workload.txn_us_p50", "us", "lower", false},
	{"workload.txn_us_p99", "us", "lower", false},
	{"archive.write_batch_s", "s", "lower", false},
	{"archive.write_batches", "count", "lower", false},
	{"archive.io_writes", "count", "lower", false},
	{"autopilot.tick_s", "s", "lower", false},
	{"autopilot.tick_us_p99", "us", "lower", false},
	{"tscout.drain_self_s", "s", "lower", false},
	{"archive.open_s", "s", "lower", false},
	{"archive.verify_s", "s", "lower", false},
	{"model.from_archive_s", "s", "lower", false},
	{"model.train_s", "s", "lower", false},
	{"model.score_s", "s", "lower", false},
	{"model.cv_s", "s", "lower", false},
	{"model.online_replay_s", "s", "lower", false},
	{"exec.archive_sql_s", "s", "lower", false},
	{"trace.overhead_pct", "%", "lower", false},
	// Isolated drives.
	{"tscout.deploy_ms", "ms", "lower", false},
	{"tscout.marker_cycle_ns", "ns", "lower", false},
	{"tscout.marker_cycle_vns", "ns", "lower", true},
	{"bpf.interp_cycle_ns", "ns", "lower", false},
	{"bpf.verify_us", "us", "lower", false},
	{"bpf.ring_submit_ns", "ns", "lower", false},
	{"bpf.ring_drain_ns", "ns", "lower", false},
	{"tscout.drain_ns_per_point", "ns", "lower", false},
	{"tscout.drain_allocs_per_point", "count", "lower", false},
	{"archive.write_ns_per_point", "ns", "lower", false},
	{"archive.write_allocs_per_point", "count", "lower", false},
	{"archive.scan_ns_per_row", "ns", "lower", false},
	{"archive.points_ns_per_row", "ns", "lower", false},
	{"model.train_ns_per_point", "ns", "lower", false},
	{"model.predict_ns", "ns", "lower", false},
	{"model.online_refit_ms", "ms", "lower", false},
	{"network.codec_ns", "ns", "lower", false},
	{"sql.parse_ns", "ns", "lower", false},
	{"dbms.execute_ns", "ns", "lower", false},
	{"dbms.execute_vns", "ns", "lower", true},
	{"index.btree_search_ns", "ns", "lower", false},
	{"index.btree_insert_ns", "ns", "lower", false},
	{"wal.submit_flush_ns", "ns", "lower", false},
	{"wal.commit_vus", "us", "lower", true},
	{"sim.barrier_ns_per_event", "ns", "lower", false},
	{"dbms.gate_ns", "ns", "lower", false},
}

// counterValues reads the wall-clock rates and the exact per-layer counters
// off a finished loop.
func counterValues(r *loopResult) map[string]float64 {
	ps := r.on.Processor
	out := map[string]float64{
		"workload.collect_txn_per_s": float64(r.on.Completed) / r.onCost.wallS,
		"workload.off_txn_per_s":     float64(r.off.Completed) / r.offCost.wallS,
		"model.learn_points_per_s":   float64(r.learn.fitPoints) / r.learnCost.wallS,
		"workload.completed":         float64(r.on.Completed),
		"workload.aborted":           float64(r.on.Aborted),
		"sim.epochs":                 float64(r.on.Epochs),
		"sim.barrier_events":         float64(r.on.BarrierEvents),
		"dbms.gate_admitted":         float64(r.on.Admission.Admitted),
		"dbms.gate_queued":           float64(r.on.Admission.Queued),
		"dbms.gate_rejected":         float64(r.on.Admission.Rejected),
		"kernel.noise_draws":         float64(r.noiseDraws),
		"wal.flushes":                float64(r.walFlushes),
		"wal.records":                float64(r.walRecs),
		"wal.bytes":                  float64(r.walBytes),
		"bpf.ring_submitted":         float64(ps.TotalSubmitted()),
		"bpf.ring_dropped":           float64(ps.TotalDropped()),
		"tscout.polls":               float64(ps.Polls),
		"tscout.drained":             float64(ps.TotalDrained()),
		"tscout.points":              float64(ps.Processed),
		"tscout.corrupt_discards":    float64(ps.TotalCorruptDiscards()),
		"tscout.sink_retries":        float64(ps.SinkRetries),
		"tscout.flush_queue_drops":   float64(ps.FlushQueueDrops),
		"tscout.insns_saved":         float64(ps.TotalInsnsSaved()),
		"tscout.compiled_programs":   float64(ps.TotalCompiledPrograms()),
		"archive.segments":           float64(r.learn.segments),
		"archive.blocks":             float64(r.learn.blocks),
		"archive.bytes":              float64(len(r.archiveData)),
		"archive.rows":               float64(r.learn.rows),
		"model.err_by_template_us":   r.learn.modelErrUS,
		"autopilot.epochs":           float64(ps.Autopilot.Epochs),
		"autopilot.refits":           float64(ps.Autopilot.Refits),
		"autopilot.points_consumed":  float64(ps.Autopilot.PointsConsumed),
	}
	if q := r.on.Admission.Queued; q > 0 {
		out["dbms.gate_wait_vus_mean"] = float64(r.on.Admission.TotalWaitNS) / 1e3 / float64(q)
	}

	var batches float64
	var perCPU []float64 // submissions per simulated CPU, over all subsystems
	for _, sub := range tscout.AllSubsystems {
		jit := ps.JIT[sub]
		for _, p := range []struct{ c, i int64 }{
			{jit.Begin.CompiledRuns, jit.Begin.InterpRuns},
			{jit.End.CompiledRuns, jit.End.InterpRuns},
			{jit.Features.CompiledRuns, jit.Features.InterpRuns},
		} {
			out["bpf.jit_runs"] += float64(p.c)
			out["bpf.interp_runs"] += float64(p.i)
		}
		out["tscout.decode_errors"] += float64(ps.Kernel[sub].DecodeErrors)
		out["tscout.ou_vns_mean."+sub.String()] = r.learn.ouMeanVNS[sub]
		for cpu, ring := range ps.Rings[sub] {
			if cpu == len(perCPU) {
				perCPU = append(perCPU, 0)
			}
			perCPU[cpu] += float64(ring.Submitted)
		}
		out["autopilot.drift_events"] += float64(ps.Autopilot.DriftEvents[sub])
	}
	for _, n := range ps.BatchSizeHist {
		batches += float64(n)
	}
	if batches > 0 {
		out["tscout.batch_mean"] = float64(ps.TotalDrained()) / batches
	}
	// Skew is the busiest CPU's submissions over the mean CPU's: 1 when the
	// per-CPU rings carry the same load.
	var busiest, total float64
	for _, n := range perCPU {
		total += n
		if n > busiest {
			busiest = n
		}
	}
	if total > 0 {
		out["bpf.ring_skew"] = busiest / (total / float64(len(perCPU)))
	}
	if ps.Autopilot.Enabled {
		min := 100
		for _, rate := range ps.Autopilot.Rates {
			if rate >= 0 && rate < min {
				min = rate
			}
		}
		out["autopilot.final_rate_min"] = float64(min)
	}
	return out
}

// spanValues reads the traced loop's spans. untracedCollectS is the
// collect pass's wall time with the wrappers off.
func spanValues(tr *tracer, traced *loopResult, untracedCollectS float64) map[string]float64 {
	return map[string]float64{
		"workload.txn_s":        tr.totalS("workload.txn"),
		"workload.txn_us_p50":   tr.pctUS("workload.txn", 0.50),
		"workload.txn_us_p99":   tr.pctUS("workload.txn", 0.99),
		"archive.write_batch_s": tr.totalS("archive.write_batch"),
		"archive.write_batches": float64(tr.count("archive.write_batch")),
		"archive.io_writes":     float64(tr.count("archive.io_write")),
		"autopilot.tick_s":      tr.totalS("autopilot.tick"),
		"autopilot.tick_us_p99": tr.pctUS("autopilot.tick", 0.99),
		// Whatever the collect pass spent outside transactions, sink
		// deliveries and controller ticks: the driver loop, Processor.Drain,
		// decode and transform.
		"tscout.drain_self_s":   tr.selfS("collect"),
		"archive.open_s":        tr.totalS("archive.open"),
		"archive.verify_s":      tr.totalS("archive.verify"),
		"model.from_archive_s":  tr.totalS("model.from_archive"),
		"model.train_s":         tr.totalS("model.train"),
		"model.score_s":         tr.totalS("model.score"),
		"model.cv_s":            tr.totalS("model.cv"),
		"model.online_replay_s": tr.totalS("model.online_replay"),
		"exec.archive_sql_s":    tr.totalS("exec.archive_sql"),
		"trace.overhead_pct":    (traced.onCost.wallS - untracedCollectS) / untracedCollectS * 100,
	}
}
