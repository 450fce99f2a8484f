package main

import (
	"math/rand"
	"slices"
	"time"

	"tscout/internal/dbms"
	"tscout/internal/wal"
	"tscout/internal/workload"
)

// The box this ledger runs on changes speed under the benchmark. Neighbours
// on the host slow a CPU by 10-100% in regimes that last from seconds to
// minutes: ten runs of one workload spread 7-40% on wall time and 6-28% on
// process CPU time depending on the hour, and nothing measured inside one run
// (window medians, fastest windows, repeated passes) is steadier, because a
// regime outlasts a pass. The speedometer is an outside reference. Every few
// milliseconds, between two transactions, the driver goroutine stops to time
// two small fixed probes: a scattered walk over 16 MiB, which slows as the
// memory system is contended, and a map fill and sort in the manner of
// ordinary Go code, which slows as the core is. A probe that took twice as
// long as usual says this CPU ran at half speed around that instant. The
// off and collect passes' host seconds are reported as steady seconds: the
// seconds measured, less the probes, times the mean speed over the pass. On
// the passes' CPU seconds that takes a 6-19% spread to 4-16% (README.md,
// "Steadiness"). Raw wall seconds and the speeds stay in the info line.
//
// The probes run on the goroutine they calibrate, because the slowdowns are
// per CPU: a prober on the other CPU saw 7% where the workload lost half.
// They are the benchmark's own code and touch nothing of the system under
// test, so a change to the system cannot move the reference.
type speedometer struct {
	tr      *tracer // spans the probes in a traced loop; nil otherwise
	last    time.Time
	samples []speedSample
	keys    []uint64
	counts  map[uint64]uint64
}

type speedSample struct {
	at    time.Time
	took  time.Duration
	speed float64 // 1 is the usual
}

const (
	probeEvery = 5 * time.Millisecond
	// What each probe usually takes on the box the budgets were sized on.
	// They only fix the unit, so that a steady second is about a wall second
	// on a usual day.
	walkUsual = 92 * time.Microsecond
	goUsual   = 104 * time.Microsecond
)

var (
	probeBuf  [1 << 21]uint64 // 16 MiB: well past the 4 MiB L2, as the servers' heaps are
	probeSink uint64
)

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func newSpeedometer(tr *tracer) *speedometer {
	return &speedometer{tr: tr, keys: make([]uint64, 0, 1024), counts: make(map[uint64]uint64, 1024)}
}

// walkProbe is dependent arithmetic with scattered memory updates. Every
// call walks its own path, so it never finds its lines in the L2 whatever
// the workload left there.
func walkProbe(path uint64) {
	x := 88172645463325252 + path*0x9E3779B97F4A7C15
	for i := 0; i < 8_000; i++ {
		x = xorshift(x)
		probeBuf[x&(uint64(len(probeBuf))-1)] += x
	}
	probeSink += x
}

// goProbe fills a map and sorts a slice, without allocating: the probes run
// inside the passes whose allocations are counted.
func (s *speedometer) goProbe() {
	clear(s.counts)
	s.keys = s.keys[:0]
	x := uint64(88172645463325252)
	for i := 0; i < 1024; i++ {
		x = xorshift(x)
		s.counts[x&1023] += x
		s.keys = append(s.keys, x)
	}
	slices.Sort(s.keys)
	probeSink += s.keys[0] + s.counts[5]
}

// probe times both probes now. The map-and-sort probe runs once untimed
// first: its few KiB are then in the cache whatever the workload evicted, as
// the walk's are never.
func (s *speedometer) probe() {
	span := s.tr.begin("speed.probe")
	defer s.tr.end(span)
	t0 := time.Now()
	walkProbe(uint64(len(s.samples)))
	t1 := time.Now()
	s.goProbe()
	t2 := time.Now()
	s.goProbe()
	t3 := time.Now()
	speed := (float64(walkUsual)/float64(t1.Sub(t0)) + float64(goUsual)/float64(t3.Sub(t2))) / 2
	s.samples = append(s.samples, speedSample{at: t0, took: t3.Sub(t0), speed: speed})
	s.last = t3
}

// tick probes if the last probe is probeEvery old.
func (s *speedometer) tick() {
	if time.Since(s.last) >= probeEvery {
		s.probe()
	}
}

// over returns the mean speed over the probes taken from one instant to
// another, give or take a millisecond (the probes that bracket a phase lie
// just outside it), and the seconds the probes strictly inside took.
// Without a probe the speed reads 1.
func (s *speedometer) over(from, to time.Time) (speed, insideS float64) {
	const slack = time.Millisecond
	n := 0
	for _, p := range s.samples {
		if p.at.Before(from.Add(-slack)) || p.at.After(to.Add(slack)) {
			continue
		}
		speed += p.speed
		n++
		if !p.at.Before(from) && !p.at.After(to) {
			insideS += p.took.Seconds()
		}
	}
	if n == 0 {
		return 1, 0
	}
	return speed / float64(n), insideS
}

// probedGen lets the speedometer tick between the driver's transactions.
type probedGen struct {
	workload.Generator
	meter *speedometer
}

func (g probedGen) Txn(se *dbms.Session, rng *rand.Rand) (*wal.Commit, error) {
	g.meter.tick()
	return g.Generator.Txn(se, rng)
}
