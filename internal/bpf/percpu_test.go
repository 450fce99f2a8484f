package bpf

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"testing"

	"tscout/internal/kernel"
	"tscout/internal/sim"
)

func TestPerCPURingRoutesByCPU(t *testing.T) {
	r := NewPerCPURing("t/percpu", 4, 8)
	r.SubmitFrom(0, []byte{0})
	r.SubmitFrom(2, []byte{2})
	r.SubmitFrom(2, []byte{22})
	r.Submit([]byte{1})         // compat path: CPU 0
	r.SubmitFrom(6, []byte{3})  // out of range: wraps to CPU 2
	r.SubmitFrom(-1, []byte{4}) // negative: clamps to CPU 0

	wantPending := []int{3, 0, 3, 0}
	for cpu, want := range wantPending {
		if got := r.AppendCPUStats(nil)[cpu].Pending; got != want {
			t.Fatalf("cpu %d pending = %d, want %d", cpu, got, want)
		}
	}
	if got := r.Stats().Pending; got != 6 {
		t.Fatalf("pending = %d, want 6", got)
	}

	var b Batch
	if n := r.DrainBatch(2, &b, 0); n != 3 {
		t.Fatalf("DrainBatch(cpu 2) = %d, want 3", n)
	}
	for i, want := range [][]byte{{2}, {22}, {3}} {
		if !bytes.Equal(b.Sample(i), want) {
			t.Fatalf("cpu 2 sample %d = %v, want %v", i, b.Sample(i), want)
		}
	}
}

func TestPerCPURingOverwriteAndIdentity(t *testing.T) {
	r := NewPerCPURing("t/percpu", 2, 4)
	for i := 0; i < 10; i++ {
		r.SubmitFrom(1, []byte{byte(i)})
	}
	var b Batch
	drained := r.DrainBatch(1, &b, 3)
	if drained != 3 {
		t.Fatalf("drained %d, want 3", drained)
	}
	// Oldest surviving samples first: 10 submitted into 4 slots = 6 drops,
	// so the ring held 6..9 and the batch starts at 6.
	for i := 0; i < 3; i++ {
		if got := b.Sample(i)[0]; got != byte(6+i) {
			t.Fatalf("sample %d = %d, want %d", i, got, 6+i)
		}
	}
	st := r.AppendCPUStats(nil)[1]
	if st.Submitted != 10 || st.Dropped != 6 || st.Drained != 3 || st.Pending != 1 {
		t.Fatalf("cpu 1 stats %+v", st)
	}
	if st.Submitted != st.Drained+st.Dropped+int64(st.Pending) {
		t.Fatalf("per-ring identity violated: %+v", st)
	}
	agg := r.Stats()
	if agg.Submitted != 10 || agg.Capacity != 8 {
		t.Fatalf("aggregate stats %+v", agg)
	}

	r.Reset()
	if st := r.Stats(); st.Submitted != 0 || st.Pending != 0 {
		t.Fatalf("stats after Reset: %+v", st)
	}
}

// TestPerCPURingDrainIsAllocationFree is the ring's zero-allocation
// contract: once the arenas and the destination batch have warmed up, a
// submit → drain cycle allocates nothing.
func TestPerCPURingDrainIsAllocationFree(t *testing.T) {
	r := NewPerCPURing("t/percpu", 2, 64)
	payload := bytes.Repeat([]byte{7}, 248)
	var b Batch
	// Warm-up: grow every arena and the batch buffer.
	for i := 0; i < 128; i++ {
		r.SubmitFrom(i%2, payload)
	}
	b.Reset()
	r.DrainBatch(0, &b, 0)
	r.DrainBatch(1, &b, 0)

	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			r.SubmitFrom(i%2, payload)
		}
		b.Reset()
		r.DrainBatch(0, &b, 0)
		r.DrainBatch(1, &b, 0)
	})
	if allocs != 0 {
		t.Fatalf("warmed submit+drain cycle allocates %.1f times per run, want 0", allocs)
	}
}

func TestPerfRingBufferDrainBatch(t *testing.T) {
	r := NewPerCPURing("t/rb", 1, 4)
	for i := 0; i < 6; i++ {
		r.SubmitFrom(3, []byte{byte(i)}) // out-of-range CPU wraps onto ring 0
	}
	var b Batch
	if n := r.DrainBatch(0, &b, 0); n != 4 {
		t.Fatalf("drained %d, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if got := b.Sample(i)[0]; got != byte(2+i) {
			t.Fatalf("sample %d = %d, want %d", i, got, 2+i)
		}
	}
	st := r.Stats()
	if st.Drained != 4 || st.Submitted != 6 || st.Dropped != 2 || st.Pending != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.Submitted != st.Drained+st.Dropped+int64(st.Pending) {
		t.Fatalf("identity violated: %+v", st)
	}
}

func TestBatchSampleBoundaries(t *testing.T) {
	var b Batch
	first := []byte{1, 2, 9}
	b.Append(first[:2])
	b.Append(nil)
	b.Append([]byte{3})
	if b.Len() != 3 {
		t.Fatalf("Len=%d", b.Len())
	}
	if !bytes.Equal(b.Sample(0), []byte{1, 2}) || len(b.Sample(1)) != 0 || !bytes.Equal(b.Sample(2), []byte{3}) {
		t.Fatalf("samples %v %v %v", b.Sample(0), b.Sample(1), b.Sample(2))
	}
	// A sample is capped at its length, so an append to it never reaches
	// its lender's next bytes, and it is the lender's slice, not a copy.
	if c := cap(b.Sample(0)); c != 2 {
		t.Fatalf("sample 0 has capacity %d, want its length 2", c)
	}
	first[0] = 7
	if b.Sample(0)[0] != 7 {
		t.Fatalf("the batch copied its sample instead of borrowing it")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("batch not empty after Reset")
	}
}

// TestDrainLendsUntilNextSubmission pins the lending contract: a drained
// sample is its slot's bytes in its ring's arena, unchanged by drains of
// other rings and by submissions to them, until its own ring's next
// submission overwrites the slot. Slots sit side by side in one arena, so
// every lent sample is capped at its length: an append to one reallocates
// instead of writing over the next slot's sample.
func TestDrainLendsUntilNextSubmission(t *testing.T) {
	r := NewPerCPURing("t/lend", 2, 1)
	r.SubmitFrom(0, []byte{1, 1})
	r.SubmitFrom(1, []byte{2, 2})
	var b Batch
	r.DrainBatch(0, &b, 0)
	r.DrainBatch(1, &b, 0)
	r.SubmitFrom(1, []byte{3, 3})
	if !bytes.Equal(b.Sample(0), []byte{1, 1}) {
		t.Fatalf("CPU 0's sample changed under other rings' traffic: %v", b.Sample(0))
	}
	r.SubmitFrom(0, []byte{4, 4})
	if !bytes.Equal(b.Sample(0), []byte{4, 4}) {
		t.Fatalf("CPU 0's sample is %v after its slot was refilled: the drain copied it", b.Sample(0))
	}

	// Three slots of one arena, drained in one batch: the first sample is
	// shorter than the slot width, so its spare bytes lie between it and
	// the next sample.
	r = NewPerCPURing("t/lend", 1, 4)
	for _, s := range [][]byte{{5}, {6, 6, 6}, {7, 7, 7}} {
		r.SubmitFrom(0, s)
	}
	b.Reset()
	if n := r.DrainBatch(0, &b, 0); n != 3 {
		t.Fatalf("drained %d, want 3", n)
	}
	for i := 0; i < b.Len(); i++ {
		s := b.Sample(i)
		if cap(s) != len(s) {
			t.Fatalf("lent sample %d has length %d but capacity %d", i, len(s), cap(s))
		}
		_ = append(s, 9, 9, 9, 9, 9, 9)
	}
	for i, want := range [][]byte{{5}, {6, 6, 6}, {7, 7, 7}} {
		if !bytes.Equal(b.Sample(i), want) {
			t.Fatalf("sample %d is %v after appends to the samples before it, want %v", i, b.Sample(i), want)
		}
	}
}

// TestRingGrowthAllocations pins the arena's cost: a ring filled from empty
// to a capacity of 4 096 with Collector-sized samples doubles nine times
// (16, 32, …, 4 096 slots) and allocates only its new arena and lengths
// each time, never a buffer per slot.
func TestRingGrowthAllocations(t *testing.T) {
	const capacity, sampleBytes, doublings = 4096, 248, 9
	r := NewPerCPURing("t/growth", 1, capacity)
	payload := bytes.Repeat([]byte{7}, sampleBytes)
	fill := func() {
		r.Reset()
		for i := 0; i < capacity; i++ {
			r.SubmitFrom(0, payload)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection cycle allocates
	allocs := testing.AllocsPerRun(5, fill)
	if st := r.Stats(); st.Pending != capacity || st.Dropped != 0 || len(r.rings[0].lens) != capacity {
		t.Fatalf("fill left %+v in %d slots, want %d pending in %d", st, len(r.rings[0].lens), capacity, capacity)
	}
	if allocs > float64(2*doublings) {
		t.Fatalf("filling a ring to %d slots allocates %.0f objects, want <= %d (2 a doubling)", capacity, allocs, 2*doublings)
	}
}

// TestVMPerfOutputRoutesByTaskCPU runs one verified program holding a
// per-CPU ring from tasks pinned to different CPUs and asserts each
// submission landed in the submitting task's ring — the kernel-side half
// of the per-CPU drain contract.
func TestVMPerfOutputRoutesByTaskCPU(t *testing.T) {
	ring := NewPerCPURing("t/percpu", 4, 8)
	b := NewBuilder("percpu-out")
	idx := b.AddMap(ring)
	p := b.StoreImm(R10, -8, 99).
		LoadMapPtr(R1, idx).
		MovReg(R2, R10).Sub(R2, 8).
		Mov(R3, 8).
		Call(HelperPerfOutput).
		Mov(R0, 0).
		Exit().MustBuild()
	lp, err := Load(p, 0)
	if err != nil {
		t.Fatalf("per-CPU perf output program rejected: %v", err)
	}

	k := kernel.New(sim.LargeHW, 1, 0)
	k.SetNumCPUs(4)
	t0 := k.NewTask("w0") // pid 1 -> cpu 0
	t1 := k.NewTask("w1") // pid 2 -> cpu 1
	t1.Migrate(3)
	for i, task := range []*kernel.Task{t0, t1, t1} {
		if _, _, err := lp.Run(task, nil); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if got := ring.AppendCPUStats(nil)[0].Pending; got != 1 {
		t.Fatalf("cpu 0 pending = %d, want 1", got)
	}
	if got := ring.AppendCPUStats(nil)[3].Pending; got != 2 {
		t.Fatalf("cpu 3 pending = %d, want 2", got)
	}
	if got := ring.AppendCPUStats(nil)[1].Pending; got != 0 {
		t.Fatalf("cpu 1 pending = %d, want 0 after Migrate", got)
	}
}

// TestRingSlotsTrackHighWater holds a ring's host memory to what it has
// buffered: a 4096-slot ring driven to high water H by interleaved submits
// and drains (so it grows with its head mid-ring) never owns more than
// min(capacity, max(ringMinSlots, 2×high water)) slots, keeps the FIFO order
// and counters of a queue model (drops only at capacity), and, once at H,
// submits and drains without allocating.
func TestRingSlotsTrackHighWater(t *testing.T) {
	const capacity = 4096
	for _, high := range []int{1, 17, 100, capacity} {
		t.Run(fmt.Sprintf("high=%d", high), func(t *testing.T) {
			r := NewPerCPURing("t/grow", 1, capacity)
			ring := &r.rings[0]
			var queue [][]byte // the model's pending samples, oldest first
			want := RingStats{Capacity: capacity}
			var b Batch
			next := 0
			check := func(op string) {
				t.Helper()
				want.Pending = len(queue)
				if got := r.AppendCPUStats(nil)[0]; got != want {
					t.Fatalf("%s: stats %+v, model %+v", op, got, want)
				}
				if n, bound := len(ring.lens), min(capacity, max(ringMinSlots, 2*want.HighWater)); n > bound {
					t.Fatalf("%s: %d slots at high water %d, want <= %d", op, n, want.HighWater, bound)
				}
			}
			submit := func() {
				t.Helper()
				p := []byte{byte(next), byte(next >> 8), byte(next >> 16)}
				next++
				r.SubmitFrom(0, p)
				want.Submitted++
				if len(queue) == capacity {
					queue = queue[1:]
					want.Dropped++
				}
				queue = append(queue, p)
				want.HighWater = max(want.HighWater, len(queue))
				check("submit")
			}
			drain := func(limit int) {
				t.Helper()
				b.Reset()
				n := r.DrainBatch(0, &b, limit)
				wantN := len(queue)
				if limit > 0 && limit < wantN {
					wantN = limit
				}
				if n != wantN {
					t.Fatalf("drain(%d) = %d, model %d", limit, n, wantN)
				}
				for i := 0; i < n; i++ {
					if !bytes.Equal(b.Sample(i), queue[i]) {
						t.Fatalf("drain: sample %d = %v, model %v", i, b.Sample(i), queue[i])
					}
				}
				queue = queue[n:]
				want.Drained += int64(n)
				check("drain")
			}

			// Ramp: two submits and one drain a round, so the head moves and
			// every growth after the first finds it mid-ring.
			for want.HighWater < high {
				submit()
				if want.HighWater < high {
					submit()
				}
				drain(1)
			}
			for high == capacity && want.Dropped < 3 {
				submit() // a full ring overwrites, and only a full one
			}
			// Steady state at H: empty the ring and refill it to H until the
			// head has gone round every slot the ring owns.
			for i := 0; i < 2*len(ring.lens)/high+2; i++ {
				drain(0)
				for len(queue) < high {
					submit()
				}
			}
			if want.HighWater != high {
				t.Fatalf("high water %d, want %d", want.HighWater, high)
			}

			p := []byte{1, 2, 3}
			cycle := func() {
				b.Reset()
				r.DrainBatch(0, &b, 0)
				for i := 0; i < high; i++ {
					r.SubmitFrom(0, p)
				}
			}
			if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
				t.Fatalf("submit+drain at high water %d allocates %.1f times a cycle, want 0", high, allocs)
			}
		})
	}
}
