package wal

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/kernel"
	"tscout/internal/sim"
	"tscout/internal/tscout"
)

func testRecords(txn uint64, n int) []Record {
	var out []Record
	for i := 0; i < n; i++ {
		out = append(out, Record{Kind: RecordUpdate, TxnID: txn, Table: "t", Bytes: 100})
	}
	out = append(out, Record{Kind: RecordCommit, TxnID: txn, Bytes: 16})
	return out
}

// submitFrom is SubmitFrom into a new handle, which it returns.
func submitFrom(s *Serializer, records []Record, nowNS int64, cpu int) *Commit {
	c := new(Commit)
	s.SubmitFrom(c, records, nowNS, cpu)
	return c
}

// newWAL returns a serializer on an instrumented kernel and a function
// that drains TScout's rings and reads the training archive back.
func newWAL(t *testing.T, cfg Config) (*Serializer, func() []tscout.TrainingPoint) {
	t.Helper()
	k := kernel.New(sim.LargeHW, 1, 0)
	var buf bytes.Buffer
	w := archive.NewWriter(&buf)
	ts := tscout.New(k, tscout.Config{Seed: 2, ProcessorSink: w})
	serM := ts.MustRegisterOU(tscout.OUDef{
		ID: 50, Name: "log_serializer", Subsystem: tscout.SubsystemLogSerializer,
		Features: []string{"num_records", "bytes", "num_txns"},
	}, tscout.ResourceSet{CPU: true})
	wrM := ts.MustRegisterOU(tscout.OUDef{
		ID: 51, Name: "disk_writer", Subsystem: tscout.SubsystemDiskWriter,
		Features: []string{"bytes", "num_records"},
	}, tscout.ResourceSet{CPU: true, Disk: true})
	if err := ts.Deploy(); err != nil {
		t.Fatal(err)
	}
	ts.Sampler().SetAllRates(100)
	return New(k, ts, serM, wrM, cfg), func() []tscout.TrainingPoint {
		t.Helper()
		ts.Processor().Drain(tscout.DrainOptions{})
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := archive.NewReader(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		pts, err := r.Points()
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
}

func TestGroupCommitBatchesBySize(t *testing.T) {
	s, _ := newWAL(t, Config{GroupSize: 3, FlushIntervalNS: 1_000_000})
	c1 := s.Submit(testRecords(1, 2), 100)
	c2 := s.Submit(testRecords(2, 2), 200)
	if c1.Resolved || c2.Resolved {
		t.Fatalf("must wait for the group")
	}
	if len(s.pending) != 2 {
		t.Fatalf("pending: %d", len(s.pending))
	}
	c3 := s.Submit(testRecords(3, 2), 300) // trips GroupSize
	if !c1.Resolved || !c2.Resolved || !c3.Resolved {
		t.Fatalf("group flush must resolve all members")
	}
	if c1.DoneNS != c3.DoneNS {
		t.Fatalf("group members share a durability time: %d vs %d", c1.DoneNS, c3.DoneNS)
	}
	if c1.DoneNS <= 300 {
		t.Fatalf("flush must take time: %d", c1.DoneNS)
	}
	flushes, recs, bytes := s.Stats()
	if flushes != 1 || recs != 9 || bytes <= 0 {
		t.Fatalf("stats: %d %d %d", flushes, recs, bytes)
	}
}

func TestGroupCommitFlushByDeadline(t *testing.T) {
	s, _ := newWAL(t, Config{GroupSize: 100, FlushIntervalNS: 1000})
	c := s.Submit(testRecords(1, 1), 500)
	s.Tick(1000) // before deadline (500+1000)
	if c.Resolved {
		t.Fatalf("too early")
	}
	if dl := s.NextDeadline(); dl != 1500 {
		t.Fatalf("deadline: %d", dl)
	}
	s.Tick(1500)
	if !c.Resolved {
		t.Fatalf("deadline flush")
	}
	if s.NextDeadline() != -1 {
		t.Fatalf("no pending after flush")
	}
}

func TestSynchronousMode(t *testing.T) {
	s, _ := newWAL(t, Config{GroupSize: 1})
	c := s.Submit(testRecords(1, 1), 0)
	if !c.Resolved {
		t.Fatalf("synchronous commits resolve immediately")
	}
	flushes, _, _ := s.Stats()
	if flushes != 1 {
		t.Fatalf("flushes: %d", flushes)
	}
}

func TestGroupCommitAmortizes(t *testing.T) {
	// Per-transaction durability cost must drop with batch size: the
	// group-commit effect the paper's offline runners miss (§6.5).
	perTxnCost := func(group int, txns int) int64 {
		s, _ := newWAL(t, Config{GroupSize: group, FlushIntervalNS: 1 << 40})
		var last *Commit
		for i := 0; i < txns; i++ {
			last = s.Submit(testRecords(uint64(i), 2), 0)
		}
		if !last.Resolved {
			t.Fatalf("batch must flush at group size")
		}
		return last.DoneNS / int64(txns)
	}
	single := perTxnCost(1, 1)
	batched := perTxnCost(32, 32)
	if batched >= single {
		t.Fatalf("group commit must amortize: batched %d >= single %d", batched, single)
	}
	if single < batched*3 {
		t.Fatalf("amortization too weak: single %d vs batched %d", single, batched)
	}
}

func TestWALEmitsTrainingData(t *testing.T) {
	s, points := newWAL(t, Config{GroupSize: 2, FlushIntervalNS: 1 << 40})
	s.Submit(testRecords(1, 3), 0)
	s.Submit(testRecords(2, 3), 10)
	pts := points()
	if len(pts) != 2 {
		t.Fatalf("expected serializer + writer points, got %d", len(pts))
	}
	var ser, wr *tscout.TrainingPoint
	for i := range pts {
		switch pts[i].Subsystem {
		case tscout.SubsystemLogSerializer:
			ser = &pts[i]
		case tscout.SubsystemDiskWriter:
			wr = &pts[i]
		}
	}
	if ser == nil || wr == nil {
		t.Fatalf("missing subsystems: %+v", pts)
	}
	if ser.Features[0] != 8 { // 2 txns x (3 updates + commit)
		t.Fatalf("serializer num_records: %v", ser.Features)
	}
	if ser.Features[2] != 2 {
		t.Fatalf("serializer num_txns: %v", ser.Features)
	}
	if wr.Metrics.DiskWriteBytes <= 0 {
		t.Fatalf("disk writer must report IO: %+v", wr.Metrics)
	}
	if ser.Metrics.ElapsedNS <= 0 || wr.Metrics.ElapsedNS <= 0 {
		t.Fatalf("elapsed metrics missing")
	}
}

func TestUninstrumentedWAL(t *testing.T) {
	k := kernel.New(sim.LargeHW, 1, 0)
	s := New(k, nil, nil, nil, Config{GroupSize: 1})
	c := s.Submit(testRecords(1, 1), 0)
	if !c.Resolved || c.DoneNS <= 0 {
		t.Fatalf("uninstrumented WAL must still work: %+v", c)
	}
}

func TestFlushEmptyIsNoop(t *testing.T) {
	s, _ := newWAL(t, Config{})
	s.Flush(100)
	if f, _, _ := s.Stats(); f != 0 {
		t.Fatalf("empty flush must not count")
	}
	s.Tick(1 << 30) // nothing pending
}

func TestDeferredSubmissionsReplayInMergedOrder(t *testing.T) {
	// Staged submissions replay sorted by (ArrivalNS, cpu, seq) regardless
	// of staging order, and group-size trips fire at the tripping commit's
	// own arrival time — the property that makes the epoch barrier's WAL
	// schedule independent of goroutine interleaving.
	run := func(order []int) (int64, int64) {
		s, _ := newWAL(t, Config{GroupSize: 3, FlushIntervalNS: 1 << 40})
		s.SetDeferMode(true)
		type sub struct {
			txn     uint64
			arrival int64
			cpu     int
		}
		subs := []sub{
			{1, 500, 0}, {2, 300, 1}, {3, 300, 0}, {4, 700, 2}, {5, 100, 3}, {6, 900, 1},
		}
		commits := make([]*Commit, len(subs))
		for _, i := range order {
			commits[i] = submitFrom(s, testRecords(subs[i].txn, 1), subs[i].arrival, subs[i].cpu)
		}
		if s.StagedCount() != len(subs) {
			t.Fatalf("staged %d, want %d", s.StagedCount(), len(subs))
		}
		for _, c := range commits {
			if c.Resolved {
				t.Fatalf("deferred submission resolved before barrier")
			}
		}
		if n := s.CommitStaged(); n != len(subs) {
			t.Fatalf("replayed %d, want %d", n, len(subs))
		}
		// GroupSize 3: merged order is txn 5(100), 3(300@cpu0), 2(300@cpu1)
		// -> flush at 300; then 1(500), 4(700), 6(900) -> flush at 900.
		if !commits[4].Resolved || !commits[1].Resolved || !commits[2].Resolved {
			t.Fatalf("first merged group unresolved")
		}
		if commits[4].DoneNS != commits[2].DoneNS {
			t.Fatalf("first group must share a durability time")
		}
		if commits[0].DoneNS <= commits[4].DoneNS {
			t.Fatalf("second group must resolve after the first")
		}
		return commits[4].DoneNS, commits[5].DoneNS
	}
	a1, a2 := run([]int{0, 1, 2, 3, 4, 5})
	b1, b2 := run([]int{5, 4, 3, 2, 1, 0})
	if a1 != b1 || a2 != b2 {
		t.Fatalf("staging order leaked into the replay schedule: (%d,%d) vs (%d,%d)", a1, a2, b1, b2)
	}
}

func TestSetDeferModeOffKeepsStage(t *testing.T) {
	s, _ := newWAL(t, Config{GroupSize: 100, FlushIntervalNS: 1 << 40})
	s.SetDeferMode(true)
	submitFrom(s, testRecords(1, 1), 100, 0)
	s.SetDeferMode(false)
	if s.StagedCount() != 1 {
		t.Fatalf("turning defer mode off must not drop the stage")
	}
	if n := s.CommitStaged(); n != 1 {
		t.Fatalf("replayed %d, want 1", n)
	}
	// Off again: submissions go straight to pending.
	s.Submit(testRecords(2, 1), 200)
	if len(s.pending) != 2 {
		t.Fatalf("pending: %d", len(s.pending))
	}
}

// TestCommitStagedTieHeavy pins the barrier replay on a stage that is mostly
// ties — three arrival times over four CPUs, forty-eight commits staged in a
// scrambled order — to the (ArrivalNS, cpu, per-CPU staging order) merge,
// recorded from the sort.SliceStable replay this one replaced. A synchronous
// WAL flushes each commit as it is replayed, so durability times rise in
// replay order and reading them back recovers it.
func TestCommitStagedTieHeavy(t *testing.T) {
	s, _ := newWAL(t, Config{GroupSize: 1})
	s.SetDeferMode(true)
	commits := make([]*Commit, 48)
	for i := range commits {
		commits[i] = submitFrom(s, testRecords(uint64(i+1), 1), int64((i*5)%3)*100, (i*7)%4)
	}
	if n := s.CommitStaged(); n != len(commits) {
		t.Fatalf("replayed %d, want %d", n, len(commits))
	}
	got := make([]int, len(commits))
	for i := range got {
		got[i] = i
	}
	sort.Slice(got, func(a, b int) bool { return commits[got[a]].DoneNS < commits[got[b]].DoneNS })
	for i := 1; i < len(got); i++ {
		if commits[got[i]].DoneNS == commits[got[i-1]].DoneNS {
			t.Fatalf("commits %d and %d share a durability time; the replay order is not recoverable", got[i-1], got[i])
		}
	}
	want := []int{
		0, 12, 24, 36, 3, 15, 27, 39, 6, 18, 30, 42, 9, 21, 33, 45, // arrival 0: cpus 0..3
		8, 20, 32, 44, 11, 23, 35, 47, 2, 14, 26, 38, 5, 17, 29, 41, // arrival 100
		4, 16, 28, 40, 7, 19, 31, 43, 10, 22, 34, 46, 1, 13, 25, 37, // arrival 200
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tie-heavy replay order:\n got %v\nwant %v", got, want)
	}

	// The per-CPU counters restart with the next epoch: two commits staged
	// on one CPU at one instant replay in staging order again.
	a := submitFrom(s, testRecords(100, 1), 1000, 3)
	b := submitFrom(s, testRecords(101, 1), 1000, 3)
	s.CommitStaged()
	if !(a.DoneNS < b.DoneNS) {
		t.Fatalf("second epoch replayed out of staging order: %d, %d", a.DoneNS, b.DoneNS)
	}
}

// TestSubmitFromAllocatesNothing: the log borrows the caller's records and
// fills the caller's handle, and the pending batch is double-buffered, so
// once it has grown a submission allocates nothing — the flushes its group
// size trips included.
func TestSubmitFromAllocatesNothing(t *testing.T) {
	const group = 4
	s := New(kernel.New(sim.LargeHW, 1, 0), nil, nil, nil, Config{GroupSize: group, FlushIntervalNS: 1 << 40})
	records := testRecords(1, 2)
	var handles [group]Commit
	now, i := int64(0), 0
	submit := func() {
		s.SubmitFrom(&handles[i%group], records, now, 0)
		now += 100
		i++
	}
	for range 2 * group {
		submit()
	}
	if n := testing.AllocsPerRun(10*group, submit); n != 0 {
		t.Fatalf("a SubmitFrom allocates %v objects, want 0", n)
	}
	s.Flush(now)
	for h := range handles {
		if !handles[h].Resolved {
			t.Fatalf("handle %d unresolved after the last flush", h)
		}
	}
	if flushes, recs, _ := s.Stats(); flushes != int64((i+group-1)/group) || recs != int64(i*len(records)) {
		t.Fatalf("%d submissions: %d flushes, %d records", i, flushes, recs)
	}
}
