package main

import (
	"fmt"

	"tscout/internal/tscout"
)

// gate is the correctness check on one finished loop; it returns one line
// per violated condition. Sample loss to ring overwrite is a metric, not a
// failure: two workloads overload their rings by design.
func gate(sp spec, r *loopResult) []string {
	var bad []string
	fail := func(format string, a ...any) { bad = append(bad, fmt.Sprintf(format, a...)) }
	ps := r.on.Processor

	// After the final unbudgeted drain nothing is left in a ring, so every
	// submitted sample was either drained or overwritten.
	check := func(shard string, s tscout.SubsystemStats) {
		if s.Submitted != s.Drained+s.Dropped {
			fail("%s: submitted %d != drained %d + dropped %d", shard, s.Submitted, s.Drained, s.Dropped)
		}
		if s.DecodeErrors != 0 || s.SinkErrors != 0 || s.RuntimeFaults != 0 {
			fail("%s: %d decode errors, %d sink errors, %d runtime faults",
				shard, s.DecodeErrors, s.SinkErrors, s.RuntimeFaults)
		}
	}
	for _, sub := range tscout.AllSubsystems {
		check(sub.String(), ps.Kernel[sub])
	}
	check("user", ps.User)
	if n := ps.TotalRuntimeFaults(); n != 0 {
		fail("%d collector runtime faults", n)
	}
	if ps.SinkRetryDrops != 0 || ps.PendingFlush != 0 || ps.PendingRetry != 0 {
		fail("sink delivery incomplete: %d retry drops, %d pending flush, %d pending retry",
			ps.SinkRetryDrops, ps.PendingFlush, ps.PendingRetry)
	}

	// Every point the Processor produced is in the archive, bar those its
	// bounded flush queue dropped. Budgeted drains never fill that queue;
	// only the final unbudgeted sweep can, and only when overloaded rings
	// leave it more than the queue holds (see README.md, "Findings").
	if ps.Processed != r.writerRows+ps.FlushQueueDrops {
		fail("processed %d != archived %d + flush-queue drops %d", ps.Processed, r.writerRows, ps.FlushQueueDrops)
	}
	if ps.FlushQueueDrops != 0 && ps.TotalDropped() == 0 {
		fail("%d flush-queue drops with no ring overloaded", ps.FlushQueueDrops)
	}
	if r.writerRows != r.learn.rows || r.learn.rows != int64(r.learn.points) {
		fail("rows disagree: writer %d, reader %d, FromArchive %d", r.writerRows, r.learn.rows, r.learn.points)
	}
	if r.on.TrainingPoints != ps.Processed {
		fail("driver counted %d training points, processor %d", r.on.TrainingPoints, ps.Processed)
	}

	if r.off.Completed+r.off.Aborted != r.on.Completed+r.on.Aborted {
		fail("passes ran different budgets: off %d, collect %d",
			r.off.Completed+r.off.Aborted, r.on.Completed+r.on.Aborted)
	}
	if sp.lossFree && ps.TotalDropped() != 0 {
		fail("lost %d samples; the workload is sized to lose none", ps.TotalDropped())
	}
	if sp.extendedLearn {
		l := r.learn
		if l.sqlRows != l.rows || l.sqlGroupRows != l.rows || l.sqlSubRows != l.wantSubRows {
			fail("archive SQL disagrees with the reader: count %d, group-by total %d of %d rows; filter %d of %d",
				l.sqlRows, l.sqlGroupRows, l.rows, l.sqlSubRows, l.wantSubRows)
		}
	}
	values := endToEndValues(r)
	for _, m := range endToEnd {
		if v := values[m.name]; !(v > 0) || v > 1e300 {
			fail("metric %s = %v is not a positive finite number", m.name, v)
		}
	}
	return bad
}
