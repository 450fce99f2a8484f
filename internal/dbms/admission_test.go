package dbms

import (
	"math/rand"
	"reflect"
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
					if tk == nil || !tk.granted {
						t.Fatalf("granted outcome with non-granted ticket")
					}
				case Queued:
					queued++
					if tk == nil || tk.granted {
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
		if !w.granted {
			t.Fatalf("release %d skipped FIFO head", i)
		}
		for _, later := range waiters[i+1:] {
			if later.granted {
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
// in the padding beside granted, so a Ticket stays 24 bytes.
func TestReleaseReturnsTheTicketItGranted(t *testing.T) {
	g := NewAdmissionGate(1, 0)
	holder, _ := g.Acquire(0)
	first, _ := g.Acquire(10)
	first.Owner = 7
	second, _ := g.Acquire(20)
	second.Owner = 9

	got := g.Release(holder, 100)
	if got != first || got.Owner != 7 || !got.granted || got.GrantNS() != 100 {
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
	if size := unsafe.Sizeof(Ticket{}); size != 24 {
		t.Fatalf("Ticket is %d bytes, want 24", size)
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

// TestReleaseNonGrantedTicketPanics: releasing a ticket that holds no slot
// panics, whether it waits in the queue or was released already and waits
// on the gate's free list.
func TestReleaseNonGrantedTicketPanics(t *testing.T) {
	for _, c := range []struct {
		name    string
		release func(g *AdmissionGate)
	}{
		{"released-twice", func(g *AdmissionGate) {
			holder, _ := g.Acquire(0)
			g.Release(holder, 10)
			g.Release(holder, 20)
		}},
		{"queued", func(g *AdmissionGate) {
			g.Acquire(0)
			waiter, _ := g.Acquire(5)
			g.Release(waiter, 10)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("releasing a non-granted ticket must panic")
				}
			}()
			c.release(NewAdmissionGate(1, 0))
		})
	}
}

func TestSessionPoolPinsRoundRobin(t *testing.T) {
	srv := admissionServer(t, 4)
	p := NewSessionPool(srv, 10)
	if len(p.free) != 10 {
		t.Fatalf("pool census: free=%d", len(p.free))
	}
	perCPU := make(map[int]int)
	for _, se := range p.free {
		perCPU[se.Task.CPU()]++
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
	if a.tx != nil {
		t.Fatalf("pooled session still holds a transaction")
	}
	p.Put(a)
	p.Put(b)
	if len(p.free) != 2 {
		t.Fatalf("free count: %d", len(p.free))
	}
}

// TestAdmissionGateStress drives one gate through seeded sequential
// schedules of Acquire and Release against a FIFO model: every queued ticket
// is granted by the Release that returns it, in arrival order, and the
// census matches the model, with InUse never above the slot count and no
// popped queue slot holding a ticket, after every operation.
func TestAdmissionGateStress(t *testing.T) {
	const slots, acquires = 8, 2000
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := NewAdmissionGate(slots, 0)
		var held, queue []*Ticket
		inUse, made := 0, 0
		check := func(step int) {
			st := g.Stats()
			if st.InUse != inUse || st.InUse > slots || st.Waiting != len(queue) {
				t.Fatalf("seed %d step %d: census %+v, model inUse=%d waiting=%d", seed, step, st, inUse, len(queue))
			}
			// The queue's popped prefix keeps no ticket the free list may
			// hand out again.
			for i, tk := range g.queue[:g.head] {
				if tk != nil {
					t.Fatalf("seed %d step %d: popped queue slot %d still holds %p", seed, step, i, tk)
				}
			}
		}
		for step := 0; made < acquires || len(held) > 0; step++ {
			now := int64(step)
			if made < acquires && (len(held) == 0 || rng.Intn(2) == 0) {
				tk, outcome := g.Acquire(now)
				made++
				switch {
				case inUse < slots && outcome == Granted && tk.granted:
					inUse++
					held = append(held, tk)
				case inUse == slots && outcome == Queued && !tk.granted:
					queue = append(queue, tk)
				default:
					t.Fatalf("seed %d step %d: Acquire gave %v with %d of %d slots in use", seed, step, outcome, inUse, slots)
				}
			} else {
				i := rng.Intn(len(held))
				tk := held[i]
				held = append(held[:i], held[i+1:]...)
				got := g.Release(tk, now)
				if len(queue) == 0 {
					if got != nil {
						t.Fatalf("seed %d step %d: Release with nobody waiting granted %+v", seed, step, got)
					}
					inUse--
				} else {
					head := queue[0]
					queue = queue[1:]
					if got != head || !got.granted || got.GrantNS() != now {
						t.Fatalf("seed %d step %d: Release returned %+v, want the FIFO head %p granted at %d", seed, step, got, head, now)
					}
					held = append(held, got)
				}
				if tk.granted {
					t.Fatalf("seed %d step %d: released ticket still granted", seed, step)
				}
			}
			check(step)
		}
		if st := g.Stats(); st.Admitted != acquires || st.Queued == 0 {
			t.Fatalf("seed %d: admitted %d (want %d), queued %d (want some)", seed, st.Admitted, acquires, st.Queued)
		}
	}
}

// TestAdmissionCycleAllocatesNothing: a released ticket goes on the gate's
// free list and the next Acquire hands it out again, as new — no Owner,
// granted at its own Acquire — so once the gate has made its first ticket
// an Acquire/Release cycle allocates nothing.
func TestAdmissionCycleAllocatesNothing(t *testing.T) {
	g := NewAdmissionGate(1, 0)
	now := int64(0)
	cycle := func() {
		tk, _ := g.Acquire(now)
		if tk.Owner != 0 || tk.GrantNS() != now {
			t.Fatalf("Acquire at %d handed out %+v", now, tk)
		}
		tk.Owner = 7
		g.Release(tk, now+1)
		now += 2
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("an Acquire/Release cycle allocates %v objects, want 0", n)
	}
}

// TestAdmissionScriptedGrants pins the grants of a scripted schedule — two
// waves of twice as many acquisitions as slots, the second one served by
// tickets the first released — to the FIFO order and grant times the gate
// gave before it recycled tickets.
func TestAdmissionScriptedGrants(t *testing.T) {
	const slots = 3
	g := NewAdmissionGate(slots, 0)
	type grant struct {
		owner   int32
		grantNS int64
	}
	var got []grant
	for wave := int64(0); wave < 2; wave++ {
		held := make([]*Ticket, 0, 2*slots)
		for i := int64(0); i < 2*slots; i++ {
			tk, outcome := g.Acquire(wave*10_000 + i*10)
			tk.Owner = int32(wave*100 + i)
			if outcome == Granted {
				got = append(got, grant{tk.Owner, tk.GrantNS()})
			}
			held = append(held, tk)
		}
		// Release the holders, the middle one first; each release grants
		// the queue's head, which is released in turn.
		order := []int{1, 0, 2, 3, 4, 5}
		for j, i := range order {
			if next := g.Release(held[i], wave*10_000+int64(1000+j*7)); next != nil {
				got = append(got, grant{next.Owner, next.GrantNS()})
			}
			held[i] = nil
		}
	}
	want := []grant{
		{0, 0}, {1, 10}, {2, 20}, {3, 1000}, {4, 1007}, {5, 1014},
		{100, 10_000}, {101, 10_010}, {102, 10_020}, {103, 11_000}, {104, 11_007}, {105, 11_014},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grants %v, want %v", got, want)
	}
}
