package dbms

import (
	"sync"
	"testing"
	"unsafe"
)

func admissionServer(t *testing.T, numCPUs int) *Server {
	t.Helper()
	srv, err := NewServer(Config{Seed: 11, NumCPUs: numCPUs})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestAdmissionGateOutcomes(t *testing.T) {
	cases := []struct {
		name       string
		slots      int
		queueDepth int
		acquires   int
		wantGrant  int
		wantQueue  int
		wantReject int
	}{
		{"all-fit", 4, 0, 3, 3, 0, 0},
		{"exhaustion-queues", 2, 0, 10, 2, 8, 0},
		{"unbounded-queue-never-rejects", 1, 0, 100, 1, 99, 0},
		{"bounded-queue-rejects-overflow", 2, 3, 10, 2, 3, 5},
		{"single-slot", 1, 1, 3, 1, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewAdmissionGate(tc.slots, tc.queueDepth)
			var granted, queued, rejected int
			for i := 0; i < tc.acquires; i++ {
				tk, outcome := g.Acquire(int64(i))
				switch outcome {
				case Granted:
					granted++
					if tk == nil || !tk.Granted() {
						t.Fatalf("granted outcome with non-granted ticket")
					}
				case Queued:
					queued++
					if tk == nil || tk.Granted() {
						t.Fatalf("queued ticket must not hold a slot yet")
					}
				case Rejected:
					rejected++
					if tk != nil {
						t.Fatalf("rejected acquire must return a nil ticket")
					}
				}
			}
			if granted != tc.wantGrant || queued != tc.wantQueue || rejected != tc.wantReject {
				t.Fatalf("outcomes = %d/%d/%d, want %d/%d/%d",
					granted, queued, rejected, tc.wantGrant, tc.wantQueue, tc.wantReject)
			}
			st := g.Stats()
			if st.InUse != tc.wantGrant || st.Waiting != tc.wantQueue || st.Rejected != int64(tc.wantReject) {
				t.Fatalf("stats census = %+v", st)
			}
		})
	}
}

func TestAdmissionReleaseIsFIFOFair(t *testing.T) {
	g := NewAdmissionGate(1, 0)
	holder, outcome := g.Acquire(0)
	if outcome != Granted {
		t.Fatalf("first acquire: %v", outcome)
	}
	var waiters []*Ticket
	for i := 0; i < 5; i++ {
		tk, o := g.Acquire(int64(100 + i))
		if o != Queued {
			t.Fatalf("waiter %d: %v", i, o)
		}
		waiters = append(waiters, tk)
	}
	// Each release grants exactly the oldest waiter, in arrival order.
	prev := holder
	for i, w := range waiters {
		g.Release(prev, int64(1000*(i+1)))
		if !w.Granted() {
			t.Fatalf("release %d skipped FIFO head", i)
		}
		for _, later := range waiters[i+1:] {
			if later.Granted() {
				t.Fatalf("release %d granted a later waiter out of order", i)
			}
		}
		if got := w.GrantNS(); got != int64(1000*(i+1)) {
			t.Fatalf("waiter %d granted at %d, want release time %d", i, got, 1000*(i+1))
		}
		prev = w
	}
	g.Release(prev, 10_000)
	st := g.Stats()
	if st.InUse != 0 || st.Waiting != 0 {
		t.Fatalf("slots leaked after full drain: %+v", st)
	}
	if st.Admitted != 6 || st.Queued != 5 || st.MaxQueueDepth != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TotalWaitNS <= 0 {
		t.Fatalf("queued admissions recorded no wait time")
	}
}

// TestReleaseReturnsTheTicketItGranted: a driver learns of a grant from
// Release's return value rather than by polling tickets — the queue's head,
// already granted when it comes back, and nil once nobody is waiting. Owner
// is the caller's label for the waiter and comes back as it was set; it fits
// in the padding beside granted, so a Ticket stays 32 bytes.
func TestReleaseReturnsTheTicketItGranted(t *testing.T) {
	g := NewAdmissionGate(1, 0)
	holder, _ := g.Acquire(0)
	first, _ := g.Acquire(10)
	first.Owner = 7
	second, _ := g.Acquire(20)
	second.Owner = 9

	got := g.Release(holder, 100)
	if got != first || got.Owner != 7 || !got.Granted() || got.GrantNS() != 100 {
		t.Fatalf("first release returned %+v, want the head of the queue, granted at 100", got)
	}
	if got = g.Release(first, 200); got != second || got.Owner != 9 {
		t.Fatalf("second release returned %+v, want the next waiter", got)
	}
	if got = g.Release(second, 300); got != nil {
		t.Fatalf("release into an empty queue returned %+v, want nil", got)
	}
	if st := g.Stats(); st.InUse != 0 || st.Waiting != 0 {
		t.Fatalf("gate not drained: %+v", st)
	}
	if size := unsafe.Sizeof(Ticket{}); size != 32 {
		t.Fatalf("Ticket is %d bytes, want 32", size)
	}
}

func TestAdmissionGrantNeverBeforeEnqueue(t *testing.T) {
	g := NewAdmissionGate(1, 0)
	holder, _ := g.Acquire(0)
	late, o := g.Acquire(5000)
	if o != Queued {
		t.Fatalf("outcome: %v", o)
	}
	// The slot frees at t=100 but the waiter only asked at t=5000: it must
	// not be granted into its own past.
	g.Release(holder, 100)
	if got := late.GrantNS(); got != 5000 {
		t.Fatalf("grant time %d rewinds before enqueue time 5000", got)
	}
}

func TestReleaseNonGrantedTicketPanics(t *testing.T) {
	g := NewAdmissionGate(2, 0)
	holder, _ := g.Acquire(0)
	defer func() {
		if recover() == nil {
			t.Fatalf("double release must panic")
		}
	}()
	g.Release(holder, 10)
	g.Release(holder, 20)
}

func TestSessionPoolPinsRoundRobin(t *testing.T) {
	srv := admissionServer(t, 4)
	p := NewSessionPool(srv, 10)
	if p.Size() != 10 || p.FreeCount() != 10 {
		t.Fatalf("pool census: size=%d free=%d", p.Size(), p.FreeCount())
	}
	perCPU := make(map[int]int)
	for _, task := range p.Tasks() {
		perCPU[task.CPU()]++
	}
	// 10 sessions round-robin over 4 CPUs: 3,3,2,2.
	want := map[int]int{0: 3, 1: 3, 2: 2, 3: 2}
	for cpu, n := range want {
		if perCPU[cpu] != n {
			t.Fatalf("cpu %d has %d sessions, want %d (all: %v)", cpu, perCPU[cpu], n, perCPU)
		}
	}
}

func TestSessionPoolGetPut(t *testing.T) {
	srv := admissionServer(t, 1)
	p := NewSessionPool(srv, 2)
	a, b := p.Get(), p.Get()
	if a == nil || b == nil || a == b {
		t.Fatalf("pool handed out bad sessions")
	}
	if p.Get() != nil {
		t.Fatalf("exhausted pool must return nil")
	}
	// A session returned mid-transaction is rolled back, not handed to the
	// next terminal with locks held.
	if err := a.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	p.Put(a)
	if got := p.Get(); got != a {
		t.Fatalf("LIFO reuse expected")
	}
	if a.InTxn() {
		t.Fatalf("pooled session still holds a transaction")
	}
	p.Put(a)
	p.Put(b)
	if p.FreeCount() != 2 {
		t.Fatalf("free count: %d", p.FreeCount())
	}
}

func TestSessionPoolDiscardNeverLeaksASlot(t *testing.T) {
	srv := admissionServer(t, 2)
	p := NewSessionPool(srv, 3)
	for round := 0; round < 5; round++ {
		se := p.Get()
		if se == nil {
			t.Fatalf("round %d: pool leaked a slot and ran dry", round)
		}
		cpu := se.Task.CPU()
		gen := se.Task.Gen()
		now := se.Task.Now()
		_ = se.BeginTxn() // die mid-transaction
		p.Discard(se)
		if p.FreeCount() != 3 {
			t.Fatalf("round %d: free count %d after discard, want 3", round, p.FreeCount())
		}
		if srv.Kernel.GenAlive(gen) {
			t.Fatalf("round %d: discarded worker's generation still alive", round)
		}
		// The replacement stays on the dead worker's CPU and does not run
		// in its past.
		fresh := p.Get()
		if fresh.Task.CPU() != cpu {
			t.Fatalf("round %d: replacement on cpu %d, want %d", round, fresh.Task.CPU(), cpu)
		}
		if fresh.Task.Now() < now {
			t.Fatalf("round %d: replacement clock %d behind dead worker %d", round, fresh.Task.Now(), now)
		}
		p.Put(fresh)
	}
}

// TestAdmissionGateStress hammers one gate from many goroutines under
// -race: every grant is eventually released, and the census must return to
// zero with the bounded-slot invariant never violated.
func TestAdmissionGateStress(t *testing.T) {
	const slots = 8
	const workers = 32
	const rounds = 200
	g := NewAdmissionGate(slots, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				now := int64(w*rounds + i)
				tk, outcome := g.Acquire(now)
				switch outcome {
				case Granted:
					g.Release(tk, now+10)
				case Queued:
					// Spin until a releasing goroutine grants us.
					for !tk.Granted() {
					}
					g.Release(tk, tk.GrantNS()+10)
				case Rejected:
					t.Errorf("unbounded queue rejected")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := g.Stats()
	if st.InUse != 0 || st.Waiting != 0 {
		t.Fatalf("census not drained: %+v", st)
	}
	if st.Admitted != workers*rounds {
		t.Fatalf("admitted %d, want %d", st.Admitted, workers*rounds)
	}
}
