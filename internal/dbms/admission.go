package dbms

import "fmt"

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
// FIFO reaches it.
type Ticket struct {
	granted bool
	// Owner is the caller's: the gate never reads or writes it. A driver
	// that learns of grants from Release's return value stores there
	// whatever names the waiter (the pooled driver: its terminal index).
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
type AdmissionGate struct {
	slots      int
	queueDepth int
	inUse      int
	queue      []*Ticket

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
// ticket and whether it was granted immediately, queued, or rejected
// (rejected tickets are nil).
func (g *AdmissionGate) Acquire(nowNS int64) (*Ticket, AdmissionOutcome) {
	t := &Ticket{enqueueNS: nowNS}
	if g.inUse < g.slots {
		g.inUse++
		t.granted = true
		t.grantNS = nowNS
		g.admitted++
		return t, Granted
	}
	if g.queueDepth > 0 && len(g.queue) >= g.queueDepth {
		g.rejected++
		return nil, Rejected
	}
	g.queue = append(g.queue, t)
	g.queuedTotal++
	if len(g.queue) > g.maxQueued {
		g.maxQueued = len(g.queue)
	}
	return t, Queued
}

// Release returns the ticket's slot at virtual time nowNS, handing it to
// the head of the wait queue (FIFO) if anyone is waiting, and returns the
// ticket it granted (nil when nobody was waiting). Releasing a non-granted
// ticket is a bug and panics — it would mint a slot from thin air and break
// the bounded-slot invariant.
func (g *AdmissionGate) Release(t *Ticket, nowNS int64) *Ticket {
	if !t.granted {
		panic("dbms: Release of a non-granted admission ticket")
	}
	t.granted = false
	if len(g.queue) > 0 {
		head := g.queue[0]
		g.queue = g.queue[1:]
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
		Waiting:       len(g.queue),
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
