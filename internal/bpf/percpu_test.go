package bpf

import (
	"bytes"
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
		if got := r.RingStats(cpu).Pending; got != want {
			t.Fatalf("cpu %d pending = %d, want %d", cpu, got, want)
		}
	}
	if got := r.Len(); got != 6 {
		t.Fatalf("Len = %d, want 6", got)
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
	st := r.RingStats(1)
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

// TestPerCPURingDrainIsAllocationFree is the tentpole's zero-allocation
// contract: once the slot buffers and the destination batch have warmed
// up, a submit → drain cycle allocates nothing.
func TestPerCPURingDrainIsAllocationFree(t *testing.T) {
	r := NewPerCPURing("t/percpu", 2, 64)
	payload := bytes.Repeat([]byte{7}, 248)
	var b Batch
	// Warm-up: grow every slot buffer and the batch buffer.
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
	b.Append([]byte{1, 2})
	b.Append(nil)
	b.Append([]byte{3})
	if b.Len() != 3 || b.Bytes() != 3 {
		t.Fatalf("Len=%d Bytes=%d", b.Len(), b.Bytes())
	}
	if !bytes.Equal(b.Sample(0), []byte{1, 2}) || len(b.Sample(1)) != 0 || !bytes.Equal(b.Sample(2), []byte{3}) {
		t.Fatalf("samples %v %v %v", b.Sample(0), b.Sample(1), b.Sample(2))
	}
	b.Reset()
	if b.Len() != 0 || b.Bytes() != 0 {
		t.Fatalf("batch not empty after Reset")
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
	if got := ring.RingStats(0).Pending; got != 1 {
		t.Fatalf("cpu 0 pending = %d, want 1", got)
	}
	if got := ring.RingStats(3).Pending; got != 2 {
		t.Fatalf("cpu 3 pending = %d, want 2", got)
	}
	if got := ring.RingStats(1).Pending; got != 0 {
		t.Fatalf("cpu 1 pending = %d, want 0 after Migrate", got)
	}
}
