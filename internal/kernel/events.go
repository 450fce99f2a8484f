package kernel

import "fmt"

// Event is one observation on a kernel's event stream (Observe): a kind, the
// virtual time, CPU and task it happened on, and six words the kind defines.
type Event struct {
	Kind     uint8
	CPU, PID int
	Time     int64
	Arg      [6]uint64
}

// Event kinds. Only those other packages' oracles filter on are exported.
const (
	// EvMarker: a marker reached an attached tracepoint, counted on the
	// CPU it arrived on before any fault dropped or repeated it.
	EvMarker = iota + 1
	// EvFault: an injected fault fired; Arg[0] is its FaultKind.
	EvFault
	// EvHelperCall: a side-effecting BPF helper ran; Arg[0] is its id,
	// Arg[1:4] the argument registers it consumes (the rest 0), Arg[4] R0.
	EvHelperCall
	// EvSubmit: a sample went to a perf ring; Arg is its first six words.
	EvSubmit
	evModeSwitch // a syscall, or one delivery of a marker
	evCtxSwitch  // an Interleaver's carries PID 0
)

// Observe attaches buf as the kernel's event stream and returns the one it
// replaces with that one's dropped count. Events are appended in place up
// to cap(buf) and a full stream drops the rest, so observing allocates and
// charges nothing; a consumer must fail on drops. Observe(nil) detaches.
//
//tsvet:ignore unused-export the event stream's attach point: the test oracles observe the kernel through it
func (k *Kernel) Observe(buf []Event) (prev []Event, dropped int64) {
	prev, dropped = k.events, k.dropped
	k.events, k.dropped = buf, 0
	return prev, dropped
}

// Emit appends an event of kind at t's CPU, pid and time and returns its
// words to fill, or nil when no stream is attached (one nil check) or full.
func (t *Task) Emit(kind uint8) *[6]uint64 {
	if t.kernel.events == nil {
		return nil
	}
	return t.kernel.emit(kind, t.cpu, t.PID, t.Clock.Now())
}

func (k *Kernel) emit(kind uint8, cpu, pid int, now int64) *[6]uint64 {
	n := len(k.events)
	if n == cap(k.events) {
		k.dropped++
		return nil
	}
	k.events = append(k.events, Event{Kind: kind, CPU: cpu, PID: pid, Time: now})
	return &k.events[n].Arg
}

// String renders the event for an oracle's failure message.
func (e Event) String() string {
	return fmt.Sprintf("event{kind %d, cpu %d, pid %d, t %d, %v}", e.Kind, e.CPU, e.PID, e.Time, e.Arg)
}
