package dbms

import (
	"fmt"
	"slices"
)

// Admission control and connection pooling let the workload scale to
// thousands of terminals without giving each one a DBMS worker thread: a
// bounded set of session slots executes transactions while excess
// terminals wait in a FIFO queue (queue-depth backpressure) — the
// architecture real servers use to keep thread counts near core counts
// while advertised connection limits are 100x higher.

// AdmissionOutcome classifies one Acquire attempt.
type AdmissionOutcome int

// Acquire outcomes.
const (
	// Granted means a session slot was free; the terminal may run now.
	Granted AdmissionOutcome = iota
	// Queued means every slot is busy; the ticket waits in FIFO order and
	// is granted by a future Release.
	Queued
	// Rejected means the wait queue is full too: the connection is refused
	// outright (queue-depth backpressure).
	Rejected
)

// String names the outcome.
func (o AdmissionOutcome) String() string {
	switch o {
	case Granted:
		return "granted"
	case Queued:
		return "queued"
	case Rejected:
		return "rejected"
	}
	return fmt.Sprintf("outcome-%d", int(o))
}

// Ticket is one terminal's admission handle. A granted ticket holds one
// session slot until Release; a queued ticket becomes granted when the
// FIFO reaches it. The gate recycles tickets: a ticket is the caller's from
// Acquire until its Release, and a later Acquire may hand the same ticket
// out again.
type Ticket struct {
	granted bool
	// Owner is the caller's: the gate never reads it, and Acquire hands a
	// ticket out with Owner zero. A driver that learns of grants from
	// Release's return value stores there whatever names the waiter (the
	// pooled driver: its terminal index).
	Owner int32
	// grantNS is the virtual time the slot was granted (the enqueue time
	// for immediately-granted tickets, the releasing terminal's time for
	// queued ones). The driver resumes the terminal's clock from it.
	grantNS int64
	// enqueueNS is when Acquire was called, for wait accounting.
	enqueueNS int64
}

// GrantNS returns the virtual time the slot was granted (undefined while
// not granted).
func (t *Ticket) GrantNS() int64 { return t.grantNS }

// AdmissionGate is a bounded-slot admission controller with a FIFO wait
// queue. Slots model session worker threads; QueueDepth models the
// listen-backlog bound beyond which connections are refused.
//
// Released tickets go on the gate's free list and Acquire reuses them, so a
// steady stream of admissions allocates nothing: the gate makes tickets, in
// blocks, only up to the most it has had out at once. The price is one
// misuse the gate cannot see: a Release through a pointer kept past that
// ticket's own Release, once Acquire has handed the ticket out again,
// releases the new holder's slot. Whoever releases a ticket must drop the
// pointer, as whoever releases a txn.Txn must.
type AdmissionGate struct {
	slots      int
	queueDepth int
	inUse      int
	// queue[head:] waits in FIFO order. A pop clears its slot and moves
	// head; a push into a full array first moves the waiters down to its
	// start if at least half of it is popped, and otherwise grows it.
	queue []*Ticket
	head  int
	// free holds released tickets for Acquire to reuse; block[made:] are
	// tickets not handed out yet, each block twice its predecessor's size.
	free  []*Ticket
	block []Ticket
	made  int

	admitted    int64
	queuedTotal int64
	rejected    int64
	maxQueued   int
	totalWaitNS int64
}

// NewAdmissionGate creates a gate with the given number of session slots
// (clamped to >= 1). queueDepth bounds the wait queue; zero or negative
// means unbounded (no rejections, pure backpressure).
func NewAdmissionGate(slots, queueDepth int) *AdmissionGate {
	if slots < 1 {
		slots = 1
	}
	return &AdmissionGate{slots: slots, queueDepth: queueDepth}
}

// Acquire asks for a session slot at virtual time nowNS. It returns the
// ticket, a released one if the gate holds any, and whether it was granted
// immediately, queued, or rejected (rejected tickets are nil).
func (g *AdmissionGate) Acquire(nowNS int64) (*Ticket, AdmissionOutcome) {
	if g.inUse >= g.slots && g.queueDepth > 0 && g.waiting() >= g.queueDepth {
		g.rejected++
		return nil, Rejected
	}
	t := g.ticket()
	*t = Ticket{enqueueNS: nowNS}
	if g.inUse < g.slots {
		g.inUse++
		t.granted = true
		t.grantNS = nowNS
		g.admitted++
		return t, Granted
	}
	if len(g.queue) == cap(g.queue) {
		if g.head >= len(g.queue)/2 {
			n := copy(g.queue, g.queue[g.head:])
			clear(g.queue[n:])
			g.queue, g.head = g.queue[:n], 0
		} else {
			g.queue = slices.Grow(g.queue, max(ticketBlock, len(g.queue)))
		}
	}
	g.queue = append(g.queue, t)
	g.queuedTotal++
	g.maxQueued = max(g.maxQueued, g.waiting())
	return t, Queued
}

// ticket takes a released ticket off the free list, or the next unused one
// of the current block, starting a new block when that one is used up.
func (g *AdmissionGate) ticket() *Ticket {
	if n := len(g.free); n > 0 {
		t := g.free[n-1]
		g.free = g.free[:n-1]
		return t
	}
	if g.made == len(g.block) {
		g.block, g.made = make([]Ticket, max(ticketBlock, 2*len(g.block))), 0
	}
	g.made++
	return &g.block[g.made-1]
}

// ticketBlock is the size of the gate's first block of tickets and the
// least its wait queue grows by: a pooled run keeps thousands of terminals
// waiting, and growing from one would reallocate a dozen times.
const ticketBlock = 128

// waiting is the number of queued tickets.
func (g *AdmissionGate) waiting() int { return len(g.queue) - g.head }

// Release returns the ticket's slot at virtual time nowNS, handing it to
// the head of the wait queue (FIFO) if anyone is waiting, and returns the
// ticket it granted (nil when nobody was waiting). The released ticket goes
// on the free list: the caller must not use it again. Releasing a
// non-granted ticket — a queued one, or one already released — is a bug
// and panics: it would mint a slot from thin air and break the bounded-slot
// invariant.
func (g *AdmissionGate) Release(t *Ticket, nowNS int64) *Ticket {
	if !t.granted {
		panic("dbms: Release of a non-granted admission ticket")
	}
	t.granted = false
	g.free = append(g.free, t)
	if g.waiting() > 0 {
		head := g.queue[g.head]
		// Clear the popped slot: the array's popped prefix must not keep a
		// ticket the free list may hand out again.
		g.queue[g.head] = nil
		g.head++
		head.granted = true
		// The waiter resumes no earlier than the release that freed the
		// slot, and never before it asked.
		head.grantNS = nowNS
		if head.grantNS < head.enqueueNS {
			head.grantNS = head.enqueueNS
		}
		g.totalWaitNS += head.grantNS - head.enqueueNS
		g.admitted++
		return head
	}
	g.inUse--
	return nil
}

// GateStats is an AdmissionGate's counters.
type GateStats struct {
	// Admitted counts grants (immediate and queued-then-granted).
	Admitted int64
	// Queued counts Acquire calls that had to wait.
	Queued int64
	// Rejected counts refused connections.
	Rejected int64
	// MaxQueueDepth is the high-water mark of the wait queue.
	MaxQueueDepth int
	// TotalWaitNS is the summed virtual wait time of queued admissions.
	TotalWaitNS int64
	// InUse and Waiting are the current census.
	InUse   int
	Waiting int
}

// Stats returns the gate's counters.
func (g *AdmissionGate) Stats() GateStats {
	return GateStats{
		Admitted:      g.admitted,
		Queued:        g.queuedTotal,
		Rejected:      g.rejected,
		MaxQueueDepth: g.maxQueued,
		TotalWaitNS:   g.totalWaitNS,
		InUse:         g.inUse,
		Waiting:       g.waiting(),
	}
}

// SessionPool is a fixed-size pool of DBMS sessions whose worker tasks are
// pinned round-robin across the simulated CPUs. Thousands of admitted
// terminals multiplex onto these few workers; the pool's size is the real
// thread-level parallelism of the server.
type SessionPool struct {
	free []*Session
}

// NewSessionPool creates size sessions (clamped to >= 1) pinned
// round-robin across the kernel's CPUs: session i runs on CPU i mod
// NumCPUs, a placement that is a function of the pool size alone —
// independent of pid-recycling history.
func NewSessionPool(srv *Server, size int) *SessionPool {
	if size < 1 {
		size = 1
	}
	p := &SessionPool{}
	n := srv.Kernel.NumCPUs()
	for i := 0; i < size; i++ {
		p.free = append(p.free, srv.NewSessionOn(i%n))
	}
	return p
}

// Get pops a free session (LIFO, for cache warmth) or returns nil when the
// pool is exhausted — which a correctly-sized AdmissionGate makes
// unreachable: gate slots must not exceed the pool size.
func (p *SessionPool) Get() *Session {
	if n := len(p.free); n > 0 {
		se := p.free[n-1]
		p.free = p.free[:n-1]
		return se
	}
	return nil
}

// Put returns a session to the pool. Any transaction left open is rolled
// back first: a terminal that stopped mid-transaction must not hand its
// locks to the next terminal.
func (p *SessionPool) Put(se *Session) {
	se.rollback()
	p.free = append(p.free, se)
}
